// Package tcpnet implements the runtime.Transport interface over real TCP
// connections, so the enclaved protocols run unmodified over an actual
// network stack (the live-demo counterpart of internal/simnet, as the
// paper's prototype ran on DeterLab machines).
//
// Framing is a minimal length-prefixed format:
//
//	src uint32 | len uint32 | payload [len]byte
//
// Each Port owns one event loop goroutine; message deliveries and timer
// callbacks are serialized onto it, giving protocols the same
// single-threaded execution model they have in the simulator.
//
// Connections are dialed asynchronously and re-dialed after failures: a
// peer process that crashes and restarts on the same address is picked up
// transparently (frames lost in between are omissions, which the lockstep
// protocols already tolerate), and a peer that never comes up costs
// nothing but a bounded dial backoff — Send never blocks the event loop.
// A send delay (SetSendDelayAll) makes a slow node, for slow-network
// scenarios the simulator cannot express end-to-end.
package tcpnet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// maxFrame bounds accepted payload sizes (defense against garbage
// input). With per-round frame coalescing an envelope can carry a whole
// round's messages to one peer — on a large topology with concurrent
// initiators that is thousands of batched entries, so the bound is
// sized for a worst-case batch frame, not a single message.
const maxFrame = 8 << 20

// loopBuffer is the event-loop queue depth.
const loopBuffer = 4096

// dialTimeout bounds one connection attempt.
const dialTimeout = 5 * time.Second

// redialBackoff is how long a destination stays marked down after a
// failed dial or a broken connection before Send tries again. It bounds
// the dial rate toward a crashed peer without stalling anything: sends
// during the backoff are dropped as omissions.
const redialBackoff = 200 * time.Millisecond

// Port is a TCP-backed transport for one node.
type Port struct {
	self   wire.NodeID
	ln     net.Listener
	origin time.Time

	mu        sync.Mutex
	addrs     map[wire.NodeID]string
	conns     map[wire.NodeID]*outConn
	downUntil map[wire.NodeID]time.Time
	delayAll  time.Duration
	outSocks  map[net.Conn]struct{}
	inbound   map[net.Conn]struct{}
	handler   func(src wire.NodeID, payload []byte)
	closed    bool

	loop chan func()
	done chan struct{}
	wg   sync.WaitGroup

	// ctr holds the transport metric handles; an atomic pointer because
	// Send and the read loops touch it from different goroutines while
	// SetMetrics may install it after the port is live.
	ctr atomic.Pointer[portCounters]
}

// portCounters are the TCP transport's metric handles.
type portCounters struct {
	framesSent     *telemetry.Counter
	framesDropped  *telemetry.Counter
	framesReceived *telemetry.Counter
	bytesSent      *telemetry.Counter
	bytesReceived  *telemetry.Counter
	reconnects     *telemetry.Counter
}

// SetMetrics registers the transport counters in m and attaches them to
// the port. A nil registry detaches them.
func (p *Port) SetMetrics(m *telemetry.Metrics) {
	if m == nil {
		p.ctr.Store(nil)
		return
	}
	p.ctr.Store(&portCounters{
		framesSent:     m.Counter("tcp_frames_sent_total"),
		framesDropped:  m.Counter("tcp_frames_dropped_total"),
		framesReceived: m.Counter("tcp_frames_received_total"),
		bytesSent:      m.Counter("tcp_bytes_sent_total"),
		bytesReceived:  m.Counter("tcp_bytes_received_total"),
		reconnects:     m.Counter("tcp_reconnects_total"),
	})
}

var _ runtime.Transport = (*Port)(nil)

// QueueStats is a point-in-time reading of the port's outbound writer
// queues — the obsplane resource probe samples it into gauges so a live
// run shows which links are backing up before the frames start dropping.
type QueueStats struct {
	// Links is the number of live outbound connections.
	Links int
	// Total is the number of frames queued across all links.
	Total int
	// Max is the deepest single link queue.
	Max int
}

// QueueStats samples the outbound queue depths. Total and Max are
// order-free folds over the connection map, so the reading is stable
// regardless of iteration order.
func (p *Port) QueueStats() QueueStats {
	var qs QueueStats
	p.mu.Lock()
	for _, oc := range p.conns {
		depth := len(oc.ch)
		qs.Links++
		qs.Total += depth
		if depth > qs.Max {
			qs.Max = depth
		}
	}
	p.mu.Unlock()
	return qs
}

// outConn is an outbound connection with an async writer. The dial
// happens on the writer goroutine, so Send never blocks the caller:
// frames queued while the dial is in flight go out as soon as the
// connection is up, and a failed dial drops them as omissions. dead is
// closed (once) when the connection is retired — by a write failure or
// by the peer-death monitor spotting the remote FIN/RST — and tells the
// writer to stop.
type outConn struct {
	dst  wire.NodeID
	ch   chan *frame
	dead chan struct{}
	once sync.Once
}

// frame is one pooled outbound wire frame (header + payload). Send
// builds frames from framePool and the writer goroutine returns them
// after the socket write, so the steady-state TCP send path recycles
// its buffers instead of allocating one per envelope. The pool entry is
// a pointer-to-struct so Put never re-boxes the slice header.
type frame struct {
	buf []byte
}

var framePool = sync.Pool{New: func() any { return new(frame) }}

// newFrame builds a pooled frame carrying one payload from src.
func newFrame(src wire.NodeID, payload []byte) *frame {
	f := framePool.Get().(*frame)
	need := 8 + len(payload)
	if cap(f.buf) < need {
		f.buf = make([]byte, need)
	} else {
		f.buf = f.buf[:need]
	}
	binary.LittleEndian.PutUint32(f.buf, uint32(src))
	binary.LittleEndian.PutUint32(f.buf[4:], uint32(len(payload)))
	copy(f.buf[8:], payload)
	return f
}

// Listen opens a listening socket for a node. Use Addr to learn the bound
// address (pass "127.0.0.1:0" for an ephemeral port), then Connect to
// install the address table once all peers are known.
func Listen(self wire.NodeID, addr string) (*Port, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
	}
	p := &Port{
		self:      self,
		ln:        ln,
		origin:    time.Now(),
		addrs:     make(map[wire.NodeID]string),
		conns:     make(map[wire.NodeID]*outConn),
		downUntil: make(map[wire.NodeID]time.Time),
		outSocks:  make(map[net.Conn]struct{}),
		inbound:   make(map[net.Conn]struct{}),
		loop:      make(chan func(), loopBuffer),
		done:      make(chan struct{}),
	}
	p.wg.Add(2)
	go p.acceptLoop()
	go p.runLoop()
	return p, nil
}

// Addr returns the bound listen address.
func (p *Port) Addr() string { return p.ln.Addr().String() }

// Connect installs the peer address table and eagerly establishes the
// outbound connections. Without the pre-dial, every link is first dialed
// by the first Send toward it — at scale that lands all N*(N-1) dials of
// a fleet inside one round window (the whole network echoes in the same
// round), and the dial burst alone can blow the Δ delivery bound. Dialing
// at Connect time moves that cost into setup, where the synchronized
// start instant leaves room for it. Failed dials are not fatal here:
// the connection record retires through the usual dropConn path and the
// first Send re-dials.
func (p *Port) Connect(addrs map[wire.NodeID]string) {
	ids := make([]int, 0, len(addrs))
	p.mu.Lock()
	for id, a := range addrs {
		p.addrs[id] = a
		ids = append(ids, int(id))
	}
	p.mu.Unlock()
	sort.Ints(ids)
	for _, id := range ids {
		if wire.NodeID(id) == p.self {
			continue
		}
		_, _ = p.outbound(wire.NodeID(id))
	}
}

// SetSendDelayAll shapes every outbound link of this node, a slow node:
// every frame waits d on its link's writer goroutine before hitting the
// socket, adding one-way latency and capping each link's frame rate — the
// slow-link hook of the scenario runner. Inbound traffic is unaffected.
// Zero removes the shaping.
func (p *Port) SetSendDelayAll(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d < 0 {
		d = 0
	}
	p.delayAll = d
}

// sendDelay returns the shaping delay of every outbound frame.
func (p *Port) sendDelay() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.delayAll
}

// SetOrigin re-anchors the transport clock, letting multiple processes
// agree on a common time origin (the synchronized start, assumption S2).
func (p *Port) SetOrigin(t time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.origin = t
}

// Now implements runtime.Transport.
func (p *Port) Now() time.Duration {
	p.mu.Lock()
	origin := p.origin
	p.mu.Unlock()
	return time.Since(origin)
}

// SetHandler implements runtime.Transport.
func (p *Port) SetHandler(h func(src wire.NodeID, payload []byte)) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.handler = h
}

// After implements runtime.Transport: fn runs on the event loop.
func (p *Port) After(d time.Duration, fn func()) {
	if d < 0 {
		d = 0
	}
	time.AfterFunc(d, func() { p.post(fn) })
}

// post enqueues fn on the event loop, dropping it if the port is closed.
func (p *Port) post(fn func()) {
	select {
	case <-p.done:
	case p.loop <- fn:
	}
}

// runLoop executes posted callbacks serially.
func (p *Port) runLoop() {
	defer p.wg.Done()
	for {
		select {
		case <-p.done:
			return
		case fn := <-p.loop:
			fn()
		}
	}
}

// Send implements runtime.Transport. The payload is copied into a pooled
// frame, so the caller's envelope buffer is released as soon as Send
// returns, and frames cycle between Send and the writer goroutines
// through framePool instead of allocating per envelope. Send never
// blocks: an unconnected destination gets an asynchronous dial, an
// unreachable one a bounded backoff during which frames drop as
// omissions.
func (p *Port) Send(dst wire.NodeID, payload []byte) {
	ctr := p.ctr.Load()
	oc, err := p.outbound(dst)
	if err != nil {
		if ctr != nil {
			ctr.framesDropped.Inc()
		}
		return // unreachable peer: equivalent to an omission
	}
	f := newFrame(p.self, payload)
	select {
	case oc.ch <- f:
		if ctr != nil {
			ctr.framesSent.Inc()
			ctr.bytesSent.Add(uint64(len(payload)))
		}
	case <-p.done:
		framePool.Put(f)
		if ctr != nil {
			ctr.framesDropped.Inc()
		}
	default:
		// Writer queue full: drop (bounded memory; omission-equivalent).
		framePool.Put(f)
		if ctr != nil {
			ctr.framesDropped.Inc()
		}
	}
}

// outbound returns the connection record for dst, creating it (and
// kicking off an asynchronous dial on the writer goroutine) if none is
// live. During the post-failure backoff window it returns an error and
// the caller drops the frame.
func (p *Port) outbound(dst wire.NodeID) (*outConn, error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, errors.New("tcpnet: closed")
	}
	if oc, ok := p.conns[dst]; ok {
		p.mu.Unlock()
		return oc, nil
	}
	if until, ok := p.downUntil[dst]; ok {
		if time.Now().Before(until) {
			p.mu.Unlock()
			return nil, fmt.Errorf("tcpnet: peer %d in redial backoff", dst)
		}
		delete(p.downUntil, dst)
	}
	addr, ok := p.addrs[dst]
	if !ok {
		p.mu.Unlock()
		return nil, fmt.Errorf("tcpnet: no address for peer %d", dst)
	}
	oc := &outConn{dst: dst, ch: make(chan *frame, 1024), dead: make(chan struct{})}
	p.conns[dst] = oc
	p.wg.Add(1)
	p.mu.Unlock()
	go p.writeLoop(oc, addr)
	return oc, nil
}

// dropConn retires a connection record after a dial failure, a write
// failure or a detected peer death: the record leaves the table so the
// next Send re-dials (after the backoff), and any frames still queued
// behind the failure return to the pool.
func (p *Port) dropConn(oc *outConn) {
	oc.once.Do(func() { close(oc.dead) })
	p.mu.Lock()
	if p.conns[oc.dst] == oc {
		delete(p.conns, oc.dst)
		p.downUntil[oc.dst] = time.Now().Add(redialBackoff)
	}
	p.mu.Unlock()
	for {
		select {
		case f := <-oc.ch:
			framePool.Put(f)
		default:
			return
		}
	}
}

// writeLoop dials the destination, then drains the outbound queue onto
// the connection, returning each frame to the pool once the socket write
// completes. On any failure the record is dropped so a later Send
// re-dials — the reconnect path a peer restart takes.
func (p *Port) writeLoop(oc *outConn, addr string) {
	defer p.wg.Done()
	d := net.Dialer{Timeout: dialTimeout, Cancel: p.done}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		p.dropConn(oc)
		return
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		_ = conn.Close()
		return
	}
	p.outSocks[conn] = struct{}{}
	p.mu.Unlock()
	defer func() {
		_ = conn.Close()
		p.mu.Lock()
		delete(p.outSocks, conn)
		p.mu.Unlock()
	}()
	// Peer-death monitor: nothing is ever received on an outbound
	// connection, so a returning read means the remote side closed (its
	// process died or restarted). Detecting it eagerly — instead of on
	// the next failing write, which on a freshly dead socket can be one
	// buffered write too late — retires the record at crash time, so the
	// very next Send re-dials the restarted peer.
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		one := make([]byte, 1)
		_, _ = conn.Read(one)
		p.dropConn(oc)
		_ = conn.Close()
	}()
	for {
		select {
		case <-p.done:
			return
		case <-oc.dead:
			return
		case f := <-oc.ch:
			if delay := p.sendDelay(); delay > 0 {
				select {
				case <-p.done:
					framePool.Put(f)
					return
				case <-oc.dead:
					framePool.Put(f)
					return
				case <-time.After(delay):
				}
			}
			_, werr := conn.Write(f.buf)
			framePool.Put(f)
			if werr != nil {
				p.dropConn(oc)
				if ctr := p.ctr.Load(); ctr != nil {
					ctr.reconnects.Inc()
				}
				return
			}
		}
	}
}

// acceptLoop accepts inbound connections.
func (p *Port) acceptLoop() {
	defer p.wg.Done()
	for {
		conn, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			_ = conn.Close()
			return
		}
		p.inbound[conn] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.readLoop(conn)
	}
}

// readLoop parses frames off one inbound connection and posts them to the
// event loop.
func (p *Port) readLoop(conn net.Conn) {
	defer p.wg.Done()
	defer func() {
		_ = conn.Close()
		p.mu.Lock()
		delete(p.inbound, conn)
		p.mu.Unlock()
	}()
	header := make([]byte, 8)
	for {
		if _, err := io.ReadFull(conn, header); err != nil {
			return
		}
		src := wire.NodeID(binary.LittleEndian.Uint32(header))
		size := binary.LittleEndian.Uint32(header[4:])
		if size > maxFrame {
			return
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(conn, payload); err != nil {
			return
		}
		if ctr := p.ctr.Load(); ctr != nil {
			ctr.framesReceived.Inc()
			ctr.bytesReceived.Add(uint64(size))
		}
		p.post(func() {
			p.mu.Lock()
			h := p.handler
			closed := p.closed
			p.mu.Unlock()
			if h != nil && !closed {
				h(src, payload)
			}
		})
	}
}

// Detach implements runtime.Transport: the node leaves the network.
func (p *Port) Detach() { p.Close() }

// Close shuts the port down and waits for its goroutines.
func (p *Port) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.conns = make(map[wire.NodeID]*outConn)
	socks := make([]net.Conn, 0, len(p.outSocks)+len(p.inbound))
	for c := range p.outSocks {
		socks = append(socks, c) //lint:allow maporder connection close order is irrelevant; the set is drained, not serialized
	}
	for c := range p.inbound {
		socks = append(socks, c) //lint:allow maporder connection close order is irrelevant; the set is drained, not serialized
	}
	p.mu.Unlock()
	close(p.done)
	_ = p.ln.Close()
	for _, c := range socks {
		_ = c.Close()
	}
	p.wg.Wait()
}
