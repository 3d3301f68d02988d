package scenario

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"slices"
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

// Barrier is the runner side of p2pnode's -control handshake and the
// fleet's directory. Each node process launches its own enclave, connects,
// announces READY with its directory entry (listen address, attestation
// quote, initial sequence number), and blocks; once all n expected nodes
// have checked in the runner releases the barrier, which sends every node
// the whole directory as one PEERS line and the shared START instant. A
// node that connects after the release — one relaunched by a restart
// event of the fault schedule — must announce the enclave its id first
// announced, the same quote and sequence number, and then receives the
// stored directory and instant immediately, so a restart joins the
// original schedule; a READY announcing another enclave is refused and
// reported as a failed node.
//
// The conversation, one text line each (directory.go owns the formats):
//
//	node → runner:  READY <id> <host:port> <quote hex> <seq>
//	runner → node:  PEERS <id> <host:port> <quote hex> <seq>,... (every id once)
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
	table    []Entry // entry i is node i's first READY; zero until it arrives
	ready    int
	conns    []net.Conn // node i's latest control connection
	released bool
	release  string // the PEERS and START lines, fixed by Release
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
		table:    make([]Entry, n),
		conns:    make([]net.Conn, n),
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
	e, err := parseReady(strings.TrimSpace(line), b.n)
	if err != nil {
		conn.Close()
		return
	}
	id := e.ID()

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	switch first := b.table[id]; {
	case first.Addr == "":
		b.table[id] = e
		if b.ready++; b.ready == b.n {
			close(b.readyAll)
		}
	case !first.sameEnclave(e):
		b.mu.Unlock()
		conn.Close()
		b.events <- NodeEvent{ID: id, Kind: "fail", Detail: "barrier: READY announces an enclave other than the node's first"}
		return
	}
	if old := b.conns[id]; old != nil {
		old.Close()
	}
	b.conns[id] = conn
	lateJoin := b.released
	b.mu.Unlock()

	b.events <- NodeEvent{ID: id, Kind: "ready", Detail: e.Addr}
	if lateJoin {
		b.releaseOne(conn)
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
		missing := missingIDs(b.table)
		b.mu.Unlock()
		return fmt.Errorf("barrier: %d/%d nodes ready after %v, missing %v", b.n-len(missing), b.n, timeout, missing)
	}
}

// Release fixes the shared start instant and sends every checked-in node
// the PEERS directory and START line.
func (b *Barrier) Release(start time.Time) error {
	b.mu.Lock()
	if b.released {
		b.mu.Unlock()
		return fmt.Errorf("barrier: already released")
	}
	if b.ready != b.n {
		b.mu.Unlock()
		return fmt.Errorf("barrier: only %d/%d nodes ready", b.ready, b.n)
	}
	b.released = true
	b.release = fmt.Sprintf("%s\nSTART %d\n", formatPeers(b.table), start.UnixMilli())
	conns := slices.Clone(b.conns)
	b.mu.Unlock()
	for _, conn := range conns {
		b.releaseOne(conn)
	}
	return nil
}

// releaseOne sends one node the PEERS+START pair.
func (b *Barrier) releaseOne(conn net.Conn) {
	b.mu.Lock()
	release := b.release
	b.mu.Unlock()
	_, _ = io.WriteString(conn, release)
}

// NodeAddr returns the listen address node id announced.
func (b *Barrier) NodeAddr(id int) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	addr := b.table[id].Addr
	return addr, addr != ""
}

// Close shuts the barrier down and drops all control connections.
func (b *Barrier) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	conns := slices.Clone(b.conns)
	b.mu.Unlock()
	b.ln.Close()
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
	b.wg.Wait()
}
