package scenario

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
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

// Barrier is the runner side of p2pnode's -control handshake, the
// fleet's directory, and the writer of every artifact a node leaves. Each
// node process launches its own enclave, connects, announces READY with
// its directory entry (listen address, attestation quote, initial
// sequence number), and blocks; once all n expected nodes have checked in
// the runner releases the barrier, which sends every node the whole
// directory as one PEERS line and the shared START instant. A node that
// connects after the release — one relaunched by a restart event of the
// fault schedule — must announce the enclave its id first announced, the
// same quote and sequence number, and then receives the stored directory
// and instant immediately, so a restart joins the original schedule; a
// READY announcing another enclave is refused and reported as a failed
// node.
//
// The conversation, one text line each (directory.go owns the release's
// formats, control.go the rest):
//
//	node → runner:  READY <id> <host:port> <quote hex> <seq>
//	runner → node:  PEERS <id> <host:port> <quote hex> <seq>,... (every id once)
//	runner → node:  START <unix-ms>
//	node → runner:  EV / MT lines while it runs, then RESULT <json>
//	node → runner:  DONE  |  FAIL <reason>
//
// The k-th accepted READY of node id is its incarnation k: the barrier
// writes that connection's events as whole JSONL lines into
// trace-<id>-<k>.jsonl and its RESULT into result-<id>-<k>.json in the
// artifact directory, and folds events and metric rows into its
// Aggregator. The connection then stays open; an EOF before DONE is how
// the runner observes a crash (deliberate or not), and a connection is
// read to its EOF even after a relaunch has replaced it, so a SIGKILLed
// incarnation's trace holds everything it sent. The runner can ask a
// node's latest incarnation for a profile capture with a PROF line.
type Barrier struct {
	ln     net.Listener
	n      int
	dir    string
	agg    *Aggregator
	events chan NodeEvent

	mu       sync.Mutex
	table    []Entry // entry i is node i's first READY; zero until it arrives
	ready    int
	incs     []int      // accepted READYs per node: the next incarnation
	conns    []net.Conn // node i's latest control connection
	all      []net.Conn // every accepted connection, replaced ones included
	released bool
	release  string // the PEERS and START lines, fixed by Release
	readyAll chan struct{}
	closed   bool

	wg sync.WaitGroup
}

// NewBarrier starts a barrier listener for n nodes on an ephemeral
// localhost port, writing artifacts into dir; log, when non-nil, receives
// the aggregator's live per-round timeline.
func NewBarrier(n int, dir string, log io.Writer) (*Barrier, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	b := &Barrier{
		ln:       ln,
		n:        n,
		dir:      dir,
		agg:      NewAggregator(n, log),
		events:   make(chan NodeEvent, 4*n+16),
		table:    make([]Entry, n),
		incs:     make([]int, n),
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
	inc := b.incs[id]
	b.incs[id]++
	b.conns[id] = conn
	b.all = append(b.all, conn)
	lateJoin := b.released
	b.mu.Unlock()

	rec := &recording{id: id, agg: b.agg}
	rec.trace, err = os.Create(filepath.Join(b.dir, traceName(id, inc)))
	if err != nil {
		conn.Close()
		b.events <- NodeEvent{ID: id, Kind: "fail", Detail: "barrier: " + err.Error()}
		return
	}
	b.events <- NodeEvent{ID: id, Kind: "ready", Detail: e.Addr}
	if lateJoin {
		b.releaseOne(conn)
	}

	// Read until EOF, which before DONE means the process died. Whole
	// lines only: a dying process's half line never reaches the trace.
	for {
		line, err := rd.ReadString('\n')
		if err != nil {
			rec.close()
			b.events <- NodeEvent{ID: id, Kind: "disconnect"}
			conn.Close()
			return
		}
		verb, rest, _ := strings.Cut(strings.TrimSuffix(line, "\n"), " ")
		switch verb {
		case "DONE":
			b.events <- NodeEvent{ID: id, Kind: "done"}
		case "FAIL":
			b.events <- NodeEvent{ID: id, Kind: "fail", Detail: rest}
		case "EV":
			rec.event(rest)
		case "MT":
			rec.metric(rest)
		case "RESULT":
			if werr := os.WriteFile(filepath.Join(b.dir, resultName(id, inc)), []byte(rest+"\n"), 0o644); werr != nil {
				b.events <- NodeEvent{ID: id, Kind: "fail", Detail: "barrier: " + werr.Error()}
			}
		}
		if rd.Buffered() == 0 || len(rec.buf) >= flushBytes {
			rec.flush()
		}
	}
}

// flushBytes bounds what a recording buffers before it writes: the trace
// file grows by whole lines, one write per burst the connection delivers.
const flushBytes = 64 << 10

// recording is the runner's end of one incarnation's telemetry: its
// trace file, its stream position, and the aggregator it feeds.
type recording struct {
	id      int
	agg     *Aggregator
	trace   *os.File
	buf     []byte
	lastSeq uint64
}

// event appends one EV line's event to the trace and the aggregator. A
// line that does not decode, or a sequence number that does not follow
// this connection's last, is a gap; an undecodable line is dropped.
func (r *recording) event(rest string) {
	seq, ev, line, err := parseEV(rest)
	if err != nil || seq != r.lastSeq+1 {
		r.agg.gap()
	}
	if seq != 0 {
		r.lastSeq = seq
	}
	if err != nil {
		return
	}
	r.buf = append(append(r.buf, line...), '\n')
	r.agg.event(r.id, ev)
}

// metric folds one MT line into the aggregator; a malformed one is a gap.
func (r *recording) metric(rest string) {
	key, v, err := parseMT(rest)
	if err != nil {
		r.agg.gap()
		return
	}
	r.agg.metric(r.id, key, v)
}

// flush writes the buffered lines to the trace file.
func (r *recording) flush() {
	if len(r.buf) == 0 {
		return
	}
	if _, err := r.trace.Write(r.buf); err != nil {
		r.agg.gap()
	}
	r.buf = r.buf[:0]
}

// close flushes and closes the trace file; a lost write is a gap.
func (r *recording) close() {
	r.flush()
	if err := r.trace.Close(); err != nil {
		r.agg.gap()
	}
}

// SendProf asks node id's latest incarnation to capture pprof profiles
// into its -profile-dir. Best-effort: a dead connection is exactly when a
// profile is wanted and exactly when it can fail.
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
	b.agg.setStart(start)
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

// Drain stops accepting connections and waits until every accepted one
// has been read to its EOF — after the fleet is dead, the point from
// which every trace and result file is whole.
func (b *Barrier) Drain() {
	b.ln.Close()
	b.wg.Wait()
}

// Close shuts the barrier down and drops all control connections.
func (b *Barrier) Close() {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return
	}
	b.closed = true
	conns := slices.Clone(b.all)
	b.mu.Unlock()
	b.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	b.wg.Wait()
}
