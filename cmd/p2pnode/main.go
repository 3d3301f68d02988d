// Command p2pnode runs one enclaved peer over real TCP — the live-network
// counterpart of the simulated experiments, demonstrating that the same
// protocol code (ERB, basic ERNG) runs over an actual network stack.
//
// A demo on one machine, 4 peers tolerating 1 byzantine node:
//
//	START=$(( $(date +%s%3N) + 3000 ))
//	for i in 0 1 2 3; do
//	  p2pnode -id $i -n 4 -t 1 \
//	    -peers 0=127.0.0.1:7100,1=127.0.0.1:7101,2=127.0.0.1:7102,3=127.0.0.1:7103 \
//	    -start-at-ms $START -mode erng &
//	done; wait
//
// All processes must share the -peers table and the -start-at-ms instant
// (the synchronized start, assumption S2). The peer with -id equal to
// -initiator broadcasts -message in erb mode; in erng mode every peer
// contributes enclave randomness and they agree on a common number.
//
// Under the scenario runner (cmd/p2pscenario) the address table and start
// instant come from the runner instead: -control points at the runner's
// barrier listener, the node picks an ephemeral port, reports it with
// READY, and receives the full PEERS table plus the shared START instant
// once every expected process has checked in. -epochs runs several
// back-to-back protocol epochs on one schedule; a process relaunched by a
// restart event of the manifest's fault schedule passes -resume-epoch to
// rejoin at the next epoch boundary with recomputed (bumped) sequence
// numbers, per the restart lifecycle.
//
// The demo shares one attestation-service key derived from -demo-secret:
// in a production deployment each enclave would be attested by the real
// IAS instead. Everything else — measurement-bound channels, AES+HMAC
// sealing, lockstep rounds, halt-on-divergence — is the real protocol.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	mrand "math/rand"
	"net"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/obsplane"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/scenario"
	"sgxp2p/internal/tcpnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2pnode:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("p2pnode", flag.ContinueOnError)
	var (
		id         = fs.Int("id", 0, "this node's id in [0, n)")
		n          = fs.Int("n", 4, "network size")
		t          = fs.Int("t", 1, "byzantine bound (n >= 2t+1)")
		delta      = fs.Duration("delta", 250*time.Millisecond, "one-way delivery bound")
		peers      = fs.String("peers", "", "comma-separated id=host:port table for ALL nodes")
		control    = fs.String("control", "", "scenario runner barrier address; replaces -peers and -start-at-ms")
		listenAddr = fs.String("listen", "127.0.0.1:0", "listen address in -control mode (ephemeral port by default)")
		startAtMS  = fs.Int64("start-at-ms", 0, "synchronized start (unix ms); 0 = now + 3s, printed for reuse")
		mode       = fs.String("mode", "erb", "protocol: erb or erng")
		initiator  = fs.Int("initiator", 0, "erb mode: broadcasting node")
		message    = fs.String("message", "hello from the enclave", "erb mode: payload")
		epochs     = fs.Int("epochs", 1, "number of back-to-back protocol epochs to run")
		resume     = fs.Int("resume-epoch", 0, "rejoin a running schedule at this epoch (restart lifecycle: seqs are re-derived and bumped)")
		chainLen   = fs.Int("chain-len", 0, "nodes 0..chain-len-1 run the worst-case byzantine chain strategy (erb mode)")
		slow       = fs.String("slow", "", "slow-link shaping: 'all=50ms' or 'id=dur,id=dur' extra delay per outbound frame")
		connectTO  = fs.Duration("connect-timeout", 10*time.Second, "preflight: every peer must accept a TCP connection within this window")
		noPref     = fs.Bool("no-preflight", false, "skip the peer reachability preflight")
		demoSecret = fs.Int64("demo-secret", 42, "shared demo attestation seed (all nodes must agree)")
		tracePath  = fs.String("trace", "", "append this node's telemetry event stream (JSONL) to a file as the run proceeds")
		metricsOut = fs.String("metrics-out", "", "write this node's metrics in Prometheus text format to a file on exit")
		resultOut  = fs.String("result-out", "", "write this node's per-epoch results as JSON to a file on exit")
		stream     = fs.Bool("stream", false, "stream telemetry events and metric deltas over the control connection during the run (-control mode)")
		spans      = fs.Bool("spans", false, "record causal span hops (seal/open/deliver/handle) keyed by sealed frame tag")
		probeEvery = fs.Duration("probe-interval", 0, "sample resource gauges (goroutines, heap, fds, link queues) at this interval; 0 = off")
		profileDir = fs.String("profile-dir", "", "capture pprof profiles into this directory on an orchestrator PROF request or on failure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n < 2 || *t < 0 || 2**t+1 > *n {
		return fmt.Errorf("invalid sizes n=%d t=%d", *n, *t)
	}
	if *epochs < 1 || *resume < 0 || *resume >= *epochs {
		return fmt.Errorf("invalid epoch schedule: epochs=%d resume-epoch=%d", *epochs, *resume)
	}
	if *stream && *control == "" {
		return fmt.Errorf("-stream needs a -control connection to stream over")
	}
	self := wire.NodeID(*id)

	// Address table and start instant: from the runner's barrier in
	// -control mode, from flags otherwise.
	var (
		addrs map[wire.NodeID]string
		start time.Time
		port  *tcpnet.Port
		ctrl  *controlConn
		err   error
	)
	if *control != "" {
		port, err = tcpnet.Listen(self, *listenAddr)
		if err != nil {
			return err
		}
		defer port.Close()
		ctrl, err = dialControl(*control, *id, port.Addr())
		if err != nil {
			return err
		}
		defer ctrl.Close()
		addrs, start, err = ctrl.AwaitStart(*n)
		if err != nil {
			return err
		}
	} else {
		addrs, err = parsePeers(*peers, *n)
		if err != nil {
			return err
		}
		port, err = tcpnet.Listen(self, addrs[self])
		if err != nil {
			return err
		}
		defer port.Close()
		start = time.UnixMilli(*startAtMS)
		if *startAtMS == 0 {
			start = time.Now().Add(3 * time.Second)
			fmt.Printf("node %d: starting at %d (pass -start-at-ms %d to the other nodes)\n",
				self, start.UnixMilli(), start.UnixMilli())
		}
	}
	port.SetOrigin(start)

	// Telemetry rides on the port's logical clock (time since the shared
	// start instant), so traces from different nodes of one run line up.
	// Streaming implies a tracer and registry even without the file flags:
	// the live plane's whole point is observing a node as it runs.
	var trace *telemetry.Tracer
	var metrics *telemetry.Metrics
	if *tracePath != "" || *stream {
		trace = telemetry.New(telemetry.Options{Clock: port.Now, Spans: *spans})
	}
	if *metricsOut != "" || *stream || *probeEvery > 0 {
		metrics = telemetry.NewMetrics()
		port.SetMetrics(metrics)
	}
	var probe *obsplane.Probe
	if *probeEvery > 0 {
		probe = obsplane.StartProbe(obsplane.ProbeConfig{
			Metrics:  metrics,
			Interval: *probeEvery,
			Queue: func() (int, int, int) {
				qs := port.QueueStats()
				return qs.Links, qs.Total, qs.Max
			},
		})
	}
	watchProfileRequests(ctrl, *profileDir, *id)
	var exp *exporter // started below, once fail exists to report a bad -trace path
	results := &scenario.NodeResult{ID: *id, Mode: *mode, N: *n, T: *t, Byz: int(self) < *chainLen}
	// dump quiesces the live plane in dependency order — the probe's final
	// sample lands in the registry, then the exporter's final drain ships
	// it and completes the trace file — and writes the exit artifacts. It
	// is idempotent and serialized: the signal handler below may run it
	// concurrently with the main goroutine's exit path, and both must see
	// a quiesced live plane and whole files.
	var dumpMu sync.Mutex
	dump := func() error {
		dumpMu.Lock()
		defer dumpMu.Unlock()
		probe.Stop()
		xerr := exp.Stop()
		if exp != nil {
			fmt.Printf("node %d: telemetry: %d events exported, %d export errors\n", self, exp.cursor-exp.failed, exp.failed)
		}
		if xerr != nil {
			return xerr
		}
		if metrics != nil && *metricsOut != "" {
			if werr := writeExport(*metricsOut, metrics.ExportPrometheus); werr != nil {
				return werr
			}
		}
		if *resultOut != "" {
			if werr := writeExport(*resultOut, func(w io.Writer) error {
				enc := json.NewEncoder(w)
				return enc.Encode(results)
			}); werr != nil {
				return werr
			}
		}
		return nil
	}
	// fail flushes whatever telemetry exists before returning the error, so
	// a run that never gets off the ground still leaves its trace behind —
	// plus a heap snapshot when profiling is on, so a FAIL is diagnosable
	// even if the orchestrator never sends PROF.
	fail := func(ferr error) error {
		captureHeapProfile(*profileDir, *id)
		if derr := dump(); derr != nil {
			fmt.Fprintln(os.Stderr, "p2pnode:", derr)
		}
		if ctrl != nil {
			ctrl.Fail(ferr)
		}
		return ferr
	}
	if trace != nil {
		var traceFile *os.File
		if *tracePath != "" {
			if traceFile, err = os.Create(*tracePath); err != nil {
				return fail(err)
			}
		}
		var streamTo *controlConn
		if *stream {
			streamTo = ctrl
		}
		exp = startExporter(trace, metrics, traceFile, streamTo)
	}

	// A terminating signal flushes before exiting: a SIGTERM or a manual
	// interrupt gets the same artifacts as a clean run. (The runner's
	// scheduled crashes are SIGKILLs, which cannot be caught — there the
	// trace file ends at the exporter's last drain.)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		fmt.Fprintf(os.Stderr, "p2pnode: %v: flushing telemetry before exit\n", sig)
		if derr := dump(); derr != nil {
			fmt.Fprintln(os.Stderr, "p2pnode:", derr)
		}
		os.Exit(1)
	}()

	// Slow-link shaping, applied before any traffic flows.
	if serr := applyShaping(port, *slow, *n); serr != nil {
		return fail(serr)
	}

	// Preflight: every peer must be accepting connections. Without it a
	// missing peer means hanging until the run timeout with nothing to
	// show; with it the node exits nonzero promptly, telemetry dumped.
	if !*noPref {
		if perr := preflight(addrs, self, *connectTO); perr != nil {
			return fail(perr)
		}
	}
	port.Connect(addrs)

	// Demo attestation: every node derives the same service key from the
	// shared demo secret, so quotes verify across processes without an
	// online attestation service.
	service, err := enclave.NewAttestationService(mrand.New(mrand.NewSource(*demoSecret)))
	if err != nil {
		return fail(err)
	}
	program := []byte("sgxp2p/p2pnode/v1")
	clock := enclave.NewWallClock()

	// Demo key exchange: with no out-of-band channel in the demo, each
	// node derives every peer's enclave deterministically from the shared
	// secret, standing in for the quote exchange of the setup phase. A
	// relaunched process replays the identical derivation, so its session
	// keys match the survivors' without channel re-establishment.
	roster := runtime.Roster{
		Quotes:      make([]enclave.Quote, *n),
		ServiceKey:  service.VerifyKey(),
		Measurement: enclaveMeasurement(program),
	}
	ids := make([]wire.NodeID, *n)
	rngs := make([]io.Reader, *n)
	clocks := make([]enclave.Clock, *n)
	for i := range ids {
		ids[i] = wire.NodeID(i)
		rngs[i] = mrand.New(mrand.NewSource(*demoSecret ^ int64(i+1)*0x9E3779B9))
		clocks[i] = clock
	}
	encls, err := enclave.LaunchBatch(program, ids, rngs, clocks)
	if err != nil {
		return fail(err)
	}
	var encl *enclave.Enclave // none for an id outside the roster: NewPeer refuses that
	if int(self) < len(encls) {
		encl = encls[self]
	}
	seqs := make([]uint64, *n)
	for i, e := range encls {
		roster.Quotes[i] = service.Attest(e)
		s, serr := e.RandomSeq()
		if serr != nil {
			return fail(serr)
		}
		// Restart lifecycle: every elapsed epoch bumped each node's seq
		// by one, so a resumed process recomputes rather than copies.
		seqs[i] = s + uint64(*resume)
	}

	// Byzantine role: nodes below -chain-len interpose the worst-case
	// chain adversary (Section 6.3) between protocol and wire.
	var transport runtime.Transport = port
	if int(self) < *chainLen {
		chain := make([]wire.NodeID, *chainLen)
		for i := range chain {
			chain[i] = wire.NodeID(i)
		}
		transport = adversary.Wrap(self, port, adversary.Chain(chain, int(self), wire.NodeID(*chainLen)), *demoSecret+int64(self))
	}

	peer, err := runtime.NewPeer(encl, transport, roster, runtime.Config{
		N: *n, T: *t, Delta: *delta, Trace: trace, Metrics: metrics,
	})
	if err != nil {
		return fail(err)
	}
	if err := peer.InstallSeqs(seqs); err != nil {
		return fail(err)
	}
	if *resume > 0 {
		peer.AlignInstance(uint32(*resume))
	}

	runErr := runEpochs(epochsConfig{
		peer: peer, port: port, self: self,
		mode: *mode, initiator: *initiator, message: *message,
		n: *n, t: *t, delta: *delta,
		epochs: *epochs, resume: *resume,
		start: start, byz: results.Byz,
	}, results)
	if runErr != nil {
		return fail(runErr)
	}
	// Artifacts before DONE: the orchestrator may reap the fleet the
	// moment the last node reports, so the final drain must have reached
	// the trace file, and the result file must be on disk, when the
	// control message leaves.
	if derr := dump(); derr != nil {
		return fail(derr)
	}
	if ctrl != nil {
		ctrl.Done()
	}
	return nil
}

// epochsConfig carries everything the epoch loop needs.
type epochsConfig struct {
	peer      *runtime.Peer
	port      *tcpnet.Port
	self      wire.NodeID
	mode      string
	initiator int
	message   string
	n, t      int
	delta     time.Duration
	epochs    int
	resume    int
	start     time.Time
	byz       bool
}

// runEpochs drives the shared epoch schedule: epoch e starts at
// start + e*window; every node runs the protocol, then bumps its sequence
// table at the epoch boundary, exactly like the managed restart
// lifecycle. A process that joined with -resume-epoch starts at its first
// scheduled slot; earlier epochs belong to its previous incarnation.
func runEpochs(cfg epochsConfig, results *scenario.NodeResult) error {
	firstProto, firstDone, protoRounds, err := buildProtocol(cfg)
	if err != nil {
		return err
	}
	window := scenario.EpochWindow(cfg.t, cfg.delta)
	fmt.Printf("node %d: listening on %s, %s run: epochs %d..%d of %d rounds, window %v\n",
		cfg.self, cfg.port.Addr(), cfg.mode, cfg.resume, cfg.epochs-1, protoRounds, window)

	for e := cfg.resume; e < cfg.epochs; e++ {
		epochStart := cfg.start.Add(time.Duration(e) * window)
		if e == cfg.resume {
			if wait := time.Until(epochStart); wait < 0 {
				return fmt.Errorf("epoch %d start already passed by %v; pick a later start", e, -wait)
			}
		}
		proto, done, rounds := firstProto, firstDone, protoRounds
		if e > cfg.resume {
			var perr error
			proto, done, rounds, perr = buildProtocol(cfg)
			if perr != nil {
				return perr
			}
		}
		peer := cfg.peer
		cfg.port.After(0, func() { peer.StartIn(proto, rounds, time.Until(epochStart)) })

		// The epoch deadline leaves the full window plus one spare window
		// of wall-clock grace (process scheduling, dump time).
		deadline := time.Until(epochStart) + 2*window
		res := scenario.EpochResult{Epoch: e}
		select {
		case out := <-done:
			res.OK, res.Accepted, res.Value, res.Round, res.Note = out.ok, out.accepted, out.value, out.round, out.note
			fmt.Printf("node %d: epoch %d: %s\n", cfg.self, e, out.note)
		case <-time.After(deadline):
			res.Note = "no finish before epoch deadline"
			fmt.Printf("node %d: epoch %d: %s\n", cfg.self, e, res.Note)
			if !cfg.byz {
				results.Epochs = append(results.Epochs, res)
				return fmt.Errorf("epoch %d timed out after %v", e, deadline)
			}
			// A byzantine node halted by P4 never finishes — that is the
			// protocol working, not a failure; keep its schedule aligned.
		}
		results.Epochs = append(results.Epochs, res)
		if e+1 < cfg.epochs {
			cfg.port.After(0, func() { peer.BumpSeqs() })
		}
	}
	return nil
}

// epochOutcome is what one epoch's finish callback reports.
type epochOutcome struct {
	ok       bool
	accepted bool
	value    string
	round    uint32
	note     string
}

// buildProtocol constructs a fresh protocol instance for one epoch and
// the channel its finish outcome arrives on.
func buildProtocol(cfg epochsConfig) (runtime.Protocol, chan epochOutcome, int, error) {
	done := make(chan epochOutcome, 1)
	switch cfg.mode {
	case "erb":
		eng, err := erb.NewEngine(cfg.peer, erb.Config{
			T:                  cfg.t,
			ExpectedInitiators: []wire.NodeID{wire.NodeID(cfg.initiator)},
		})
		if err != nil {
			return nil, nil, 0, err
		}
		if int(cfg.self) == cfg.initiator {
			var v wire.Value
			copy(v[:], cfg.message)
			eng.SetInput(v)
		}
		proto := &finishHook{Protocol: eng, onFinish: func() {
			res, ok := eng.Result(wire.NodeID(cfg.initiator))
			switch {
			case !ok:
				done <- epochOutcome{note: "no decision"}
			case !res.Accepted:
				done <- epochOutcome{ok: true, round: res.Round, note: "accepted bottom"}
			default:
				done <- epochOutcome{
					ok: true, accepted: true,
					value: fmt.Sprintf("%x", res.Value[:]),
					round: res.Round,
					note:  fmt.Sprintf("accepted %q in round %d", strings.TrimRight(string(res.Value[:]), "\x00"), res.Round),
				}
			}
		}}
		return proto, done, eng.Rounds(), nil
	case "erng":
		b, err := erng.NewBasic(cfg.peer, cfg.t)
		if err != nil {
			return nil, nil, 0, err
		}
		proto := &finishHook{Protocol: b, onFinish: func() {
			res, ok := b.Result()
			if !ok || !res.OK {
				done <- epochOutcome{note: "no common random number"}
				return
			}
			done <- epochOutcome{
				ok: true, accepted: true,
				value: fmt.Sprintf("%x", res.Value[:]),
				round: res.Round,
				note:  fmt.Sprintf("common random number %s from %d contributors", res.Value, len(res.Contributors)),
			}
		}}
		return proto, done, b.Rounds(), nil
	default:
		return nil, nil, 0, fmt.Errorf("unknown mode %q", cfg.mode)
	}
}

// preflight verifies every peer's listener accepts a TCP connection
// within the window, retrying until the deadline. A peer that never
// comes up is reported by id and address so the failure is actionable.
func preflight(addrs map[wire.NodeID]string, self wire.NodeID, window time.Duration) error {
	deadline := time.Now().Add(window)
	ids := make([]int, 0, len(addrs))
	for id := range addrs {
		if id != self {
			ids = append(ids, int(id))
		}
	}
	sort.Ints(ids)
	for _, id := range ids {
		addr := addrs[wire.NodeID(id)]
		for {
			c, err := net.DialTimeout("tcp", addr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("peer %d (%s) never accepted a connection within %v: %w", id, addr, window, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// applyShaping parses the -slow spec and installs per-destination send
// delays: "all=50ms" shapes every link, "2=50ms,3=100ms" individual ones.
func applyShaping(port *tcpnet.Port, spec string, n int) error {
	if spec == "" {
		return nil
	}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return fmt.Errorf("bad -slow entry %q", part)
		}
		d, err := time.ParseDuration(kv[1])
		if err != nil {
			return fmt.Errorf("bad -slow duration %q: %w", kv[1], err)
		}
		if kv[0] == "all" {
			port.SetSendDelayAll(d)
			continue
		}
		var id int
		if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil || id < 0 || id >= n {
			return fmt.Errorf("bad -slow peer id %q", kv[0])
		}
		port.SetSendDelay(wire.NodeID(id), d)
	}
	return nil
}

// controlConn is the node side of the scenario runner's barrier: a
// line-oriented TCP conversation (READY → PEERS+START → DONE/FAIL),
// which in -stream mode also multiplexes live telemetry (EV/MT lines
// node→runner) and profile requests (PROF lines runner→node). The write
// mutex keeps the exporter's lines whole against DONE/FAIL.
type controlConn struct {
	conn net.Conn
	rd   *bufio.Reader
	mu   sync.Mutex
}

// dialControl connects to the runner and announces this node's listen
// address.
func dialControl(addr string, id int, listenAddr string) (*controlConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", addr, err)
	}
	if _, err := fmt.Fprintf(conn, "READY %d %s\n", id, listenAddr); err != nil {
		conn.Close()
		return nil, err
	}
	return &controlConn{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// AwaitStart blocks until the runner releases the barrier, returning the
// full address table and the shared start instant.
func (c *controlConn) AwaitStart(n int) (map[wire.NodeID]string, time.Time, error) {
	peersLine, err := c.readLine("PEERS")
	if err != nil {
		return nil, time.Time{}, err
	}
	addrs, err := parsePeers(peersLine, n)
	if err != nil {
		return nil, time.Time{}, err
	}
	startLine, err := c.readLine("START")
	if err != nil {
		return nil, time.Time{}, err
	}
	var ms int64
	if _, err := fmt.Sscanf(startLine, "%d", &ms); err != nil {
		return nil, time.Time{}, fmt.Errorf("control: bad START %q", startLine)
	}
	return addrs, time.UnixMilli(ms), nil
}

// readLine reads one control line and strips the expected verb.
func (c *controlConn) readLine(verb string) (string, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return "", err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return "", fmt.Errorf("control: reading %s: %w", verb, err)
	}
	line = strings.TrimSpace(line)
	rest, found := strings.CutPrefix(line, verb+" ")
	if !found {
		return "", fmt.Errorf("control: expected %s, got %q", verb, line)
	}
	return rest, nil
}

// Done reports successful completion to the runner.
func (c *controlConn) Done() {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = fmt.Fprintf(c.conn, "DONE\n")
}

// Fail reports an error to the runner.
func (c *controlConn) Fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = fmt.Fprintf(c.conn, "FAIL %s\n", strings.ReplaceAll(err.Error(), "\n", " "))
}

// StreamEvent ships one sequence-numbered telemetry event line.
func (c *controlConn) StreamEvent(seq uint64, line []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = fmt.Fprintf(c.conn, "EV %d %s\n", seq, line)
}

// StreamMetric ships one changed metric row.
func (c *controlConn) StreamMetric(seq uint64, mv telemetry.MetricValue) {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, _ = fmt.Fprintf(c.conn, "MT %d %s %s %g\n", seq, mv.Kind, mv.Name, mv.Value)
}

// ReadVerbLine reads one runner→node line after the barrier released —
// the profile-request watcher's loop. No deadline: the watcher lives
// until the connection closes.
func (c *controlConn) ReadVerbLine() (string, error) {
	if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
		return "", err
	}
	line, err := c.rd.ReadString('\n')
	if err != nil {
		return "", err
	}
	return strings.TrimSpace(line), nil
}

// Close closes the control connection.
func (c *controlConn) Close() error { return c.conn.Close() }

// writeExport creates path and streams one telemetry export into it.
func writeExport(path string, export func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// finishHook forwards a protocol and signals its finish.
type finishHook struct {
	runtime.Protocol
	onFinish func()
}

func (f *finishHook) OnFinish() {
	f.Protocol.OnFinish()
	f.onFinish()
}

// parsePeers parses "0=h:p,1=h:p,..." into a dense address table.
func parsePeers(s string, n int) (map[wire.NodeID]string, error) {
	if s == "" {
		return nil, fmt.Errorf("-peers is required (id=host:port for all %d nodes)", n)
	}
	out := make(map[wire.NodeID]string, n)
	for _, part := range strings.Split(s, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad peer entry %q", part)
		}
		var id int
		if _, err := fmt.Sscanf(kv[0], "%d", &id); err != nil || id < 0 || id >= n {
			return nil, fmt.Errorf("bad peer id %q", kv[0])
		}
		out[wire.NodeID(id)] = kv[1]
	}
	if len(out) != n {
		missing := make([]int, 0, n)
		for i := 0; i < n; i++ {
			if _, ok := out[wire.NodeID(i)]; !ok {
				missing = append(missing, i)
			}
		}
		sort.Ints(missing)
		return nil, fmt.Errorf("peer table incomplete, missing ids %v", missing)
	}
	return out, nil
}

// enclaveMeasurement computes the expected program measurement.
func enclaveMeasurement(program []byte) xcrypto.Measurement {
	return xcrypto.Measure(program)
}
