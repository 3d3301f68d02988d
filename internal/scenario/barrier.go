package scenario

import (
	"bufio"
	"fmt"
	"net"
	"sort"
	"strings"
	"sync"
	"time"
)

// NodeEvent is one control-plane observation about a node process.
type NodeEvent struct {
	// ID is the node the event concerns.
	ID int
	// Kind is "ready", "done", "fail" or "disconnect".
	Kind string
	// Detail carries the FAIL reason or the READY listen address.
	Detail string
}

// Barrier is the runner side of p2pnode's -control handshake. Each node
// process connects, announces READY <id> <addr>, and blocks; once all n
// expected nodes have checked in the runner releases the barrier, which
// sends every node the full PEERS table and the shared START instant. A
// node that connects after the release — one relaunched by a restart
// event of the fault schedule — receives the same table and instant
// immediately, so a restart joins the original schedule.
//
// The conversation, one text line each:
//
//	node → runner:  READY <id> <host:port>
//	runner → node:  PEERS <0=h:p,1=h:p,...>
//	runner → node:  START <unix-ms>
//	node → runner:  DONE  |  FAIL <reason>
//
// The connection then stays open; an EOF before DONE is how the runner
// observes a crash (deliberate or not). A node started with -stream
// multiplexes live telemetry onto the same connection (EV/MT lines,
// routed to the stream sink), and the runner can ask any node for a
// profile capture with a PROF line in the other direction.
type Barrier struct {
	ln     net.Listener
	n      int
	events chan NodeEvent

	mu       sync.Mutex
	addrs    map[int]string
	conns    map[int]net.Conn
	released bool
	start    time.Time
	readyAll chan struct{}
	closed   bool
	sink     func(id int, line string)

	wg sync.WaitGroup
}

// NewBarrier starts a barrier listener for n nodes on an ephemeral
// localhost port.
func NewBarrier(n int) (*Barrier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &Barrier{
		ln:       ln,
		n:        n,
		events:   make(chan NodeEvent, 4*n+16),
		addrs:    make(map[int]string, n),
		conns:    make(map[int]net.Conn, n),
		readyAll: make(chan struct{}),
	}
	b.wg.Add(1)
	go b.acceptLoop()
	return b, nil
}

// Addr returns the control address node processes dial.
func (b *Barrier) Addr() string { return b.ln.Addr().String() }

// Events delivers control-plane observations as they happen.
func (b *Barrier) Events() <-chan NodeEvent { return b.events }

// acceptLoop accepts node connections until the barrier closes.
func (b *Barrier) acceptLoop() {
	defer b.wg.Done()
	for {
		conn, err := b.ln.Accept()
		if err != nil {
			return
		}
		b.wg.Add(1)
		go b.serve(conn)
	}
}

// serve handles one node's control conversation.
func (b *Barrier) serve(conn net.Conn) {
	defer b.wg.Done()
	rd := bufio.NewReader(conn)
	line, err := rd.ReadString('\n')
	if err != nil {
		conn.Close()
		return
	}
	var id int
	var addr string
	if _, err := fmt.Sscanf(strings.TrimSpace(line), "READY %d %s", &id, &addr); err != nil {
		conn.Close()
		return
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	b.addrs[id] = addr
	if old := b.conns[id]; old != nil {
		old.Close()
	}
	b.conns[id] = conn
	allReady := !b.released && len(b.addrs) == b.n
	lateJoin := b.released
	if allReady {
		close(b.readyAll)
	}
	b.mu.Unlock()

	b.events <- NodeEvent{ID: id, Kind: "ready", Detail: addr}
	if lateJoin {
		b.releaseOne(id, conn)
	}

	// Read until DONE/FAIL or EOF; EOF first means the process died.
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			b.events <- NodeEvent{ID: id, Kind: "disconnect"}
			conn.Close()
			return
		}
		line = strings.TrimSpace(line)
		switch {
		case line == "DONE":
			b.events <- NodeEvent{ID: id, Kind: "done"}
		case strings.HasPrefix(line, "FAIL "):
			b.events <- NodeEvent{ID: id, Kind: "fail", Detail: strings.TrimPrefix(line, "FAIL ")}
		case strings.HasPrefix(line, "EV ") || strings.HasPrefix(line, "MT "):
			b.mu.Lock()
			sink := b.sink
			b.mu.Unlock()
			if sink != nil {
				sink(id, line)
			}
		}
	}
}

// SetStreamSink installs the consumer for streamed EV/MT lines. The sink
// runs on the per-connection serve goroutines, so it must be safe for
// concurrent calls with distinct ids.
func (b *Barrier) SetStreamSink(sink func(id int, line string)) {
	b.mu.Lock()
	b.sink = sink
	b.mu.Unlock()
}

// SendProf asks one node to capture pprof profiles (it needs to have
// been started with -profile-dir). Best-effort: a dead connection is
// exactly when a profile is wanted and exactly when it can fail.
func (b *Barrier) SendProf(id int) {
	b.mu.Lock()
	conn := b.conns[id]
	b.mu.Unlock()
	if conn != nil {
		_, _ = fmt.Fprintf(conn, "PROF\n")
	}
}

// AwaitReady blocks until all n nodes have checked in, or the timeout.
func (b *Barrier) AwaitReady(timeout time.Duration) error {
	select {
	case <-b.readyAll:
		return nil
	case <-time.After(timeout):
		b.mu.Lock()
		missing := make([]int, 0, b.n)
		for i := 0; i < b.n; i++ {
			if _, ok := b.addrs[i]; !ok {
				missing = append(missing, i)
			}
		}
		b.mu.Unlock()
		return fmt.Errorf("barrier: %d/%d nodes ready after %v, missing %v", b.n-len(missing), b.n, timeout, missing)
	}
}

// Release fixes the shared start instant and sends every checked-in node
// its PEERS table and START line.
func (b *Barrier) Release(start time.Time) error {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return fmt.Errorf("barrier: already released")
	}
	if len(b.addrs) != b.n {
		b.mu.Unlock()
		return fmt.Errorf("barrier: only %d/%d nodes ready", len(b.addrs), b.n)
	}
	b.released = true
	b.start = start
	ids := make([]int, 0, b.n)
	for id := range b.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	conns := make([]net.Conn, 0, len(ids))
	for _, id := range ids {
		conns = append(conns, b.conns[id])
	}
	b.mu.Unlock()
	for i, id := range ids {
		b.releaseOne(id, conns[i])
	}
	return nil
}

// releaseOne sends one node the PEERS+START pair.
func (b *Barrier) releaseOne(id int, conn net.Conn) {
	b.mu.Lock()
	line := b.peersLine()
	startMS := b.start.UnixMilli()
	b.mu.Unlock()
	_, _ = fmt.Fprintf(conn, "PEERS %s\nSTART %d\n", line, startMS)
}

// peersLine renders the address table in parsePeers format (mu held).
func (b *Barrier) peersLine() string {
	ids := make([]int, 0, len(b.addrs))
	for id := range b.addrs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	parts := make([]string, 0, len(ids))
	for _, id := range ids {
		parts = append(parts, fmt.Sprintf("%d=%s", id, b.addrs[id]))
	}
	return strings.Join(parts, ",")
}

// NodeAddr returns the listen address node id announced.
func (b *Barrier) NodeAddr(id int) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	addr, ok := b.addrs[id]
	return addr, ok
}

// Start returns the released start instant.
func (b *Barrier) Start() time.Time {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.start
}

// Close shuts the barrier down and drops all control connections.
func (b *Barrier) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	conns := make([]net.Conn, 0, len(b.conns))
	ids := make([]int, 0, len(b.conns))
	for id := range b.conns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		conns = append(conns, b.conns[id])
	}
	b.mu.Unlock()
	b.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	b.wg.Wait()
}
