// Command p2pnode runs one enclaved peer over real TCP — the live-network
// counterpart of the simulated experiments, demonstrating that the same
// protocol code runs over an actual network stack: it builds, reads and
// closes its epochs through deploy's instance catalogue, as a simulated
// deployment does.
//
// A node runs under the scenario runner (cmd/p2pscenario), which spawns
// the fleet; -control, the runner's barrier address, is required. The
// node launches and attests its own enclave, picks an ephemeral port, and
// announces its directory entry with READY: address, quote and initial
// sequence number. Once every expected process has checked in it
// receives the PEERS directory — every node's entry — and the shared
// START instant (the synchronized start, assumption S2), and builds its
// roster and sequence table from that directory alone; the runtime checks
// the roster's quotes in one batch. -mode names the catalogue's kind:
// node 0 broadcasts -message in erb mode; in erng (Algorithm 3) and
// erng-opt (Algorithm 6) mode every peer contributes enclave randomness
// and they agree on a common number. -epochs runs several back-to-back
// protocol epochs on one schedule; a process relaunched by a restart
// event of the manifest's fault schedule passes -resume-epoch, announces
// the same enclave (same seed, same quote), closes each epoch it missed
// (deploy.CloseInstance), and rejoins at the next epoch boundary.
//
// Every node runs on its own adversary OS, honest until the run's fault
// schedule flips it: -faults carries the manifest's schedule in its
// chaos.Schedule text, and the node sets each flip that names it at the
// start of its round by the simulated fault engine's rule (chaos.Flips;
// the §6.3 chain is two flips, "flip(0,only-to(1))@r1
// flip(1,only-to(2))@r1"). Crashes and restarts are the runner's.
//
// The demo shares one attestation-service key derived from a fixed demo
// secret, which also seeds each node's enclave: in a production
// deployment each enclave would be attested by the real IAS instead.
// Everything else — measurement-bound channels, AES+HMAC sealing,
// lockstep rounds, halt-on-divergence — is the real protocol.
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
	"strings"
	"sync"
	"syscall"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/chaos"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/obsplane"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/scenario"
	"sgxp2p/internal/tcpnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2pnode:", err)
		os.Exit(1)
	}
}

// Fixed parameters of the demo fleet: every node derives the one
// attestation service (and seeds its enclave) from demoSecret, and the
// preflight waits connectTimeout for the peers' listeners.
const (
	demoSecret     = 42
	connectTimeout = 10 * time.Second
)

func run(args []string) error {
	fs := flag.NewFlagSet("p2pnode", flag.ContinueOnError)
	var (
		id         = fs.Int("id", 0, "this node's id in [0, n)")
		n          = fs.Int("n", 4, "network size")
		t          = fs.Int("t", 1, "byzantine bound (n >= 2t+1)")
		delta      = fs.Duration("delta", 250*time.Millisecond, "one-way delivery bound")
		control    = fs.String("control", "", "scenario runner barrier address (required)")
		listenAddr = fs.String("listen", "127.0.0.1:0", "listen address (ephemeral port by default)")
		mode       = fs.String("mode", "erb", "protocol, a kind of the instance catalogue: erb, erng or erng-opt")
		message    = fs.String("message", "hello from the enclave", "erb mode: node 0's payload")
		epochs     = fs.Int("epochs", 1, "number of back-to-back protocol epochs to run")
		resume     = fs.Int("resume-epoch", 0, "rejoin a running schedule at this epoch, closing the epochs before it (restart lifecycle)")
		faults     = fs.String("faults", "", "the run's fault schedule (chaos.Schedule text); the node applies its own flip events")
		slow       = fs.Duration("slow", 0, "slow-node shaping: extra delay per outbound frame on every link")
		tracePath  = fs.String("trace", "", "append this node's telemetry event stream (JSONL) to a file as the run proceeds")
		metricsOut = fs.String("metrics-out", "", "write this node's metrics in Prometheus text format to a file on exit")
		resultOut  = fs.String("result-out", "", "write this node's per-epoch results as JSON to a file on exit")
		stream     = fs.Bool("stream", false, "stream telemetry events and metric deltas over the control connection during the run")
		spans      = fs.Bool("spans", false, "record causal span hops (seal/open/deliver/handle) keyed by sealed frame tag")
		probeEvery = fs.Duration("probe-interval", 0, "sample resource gauges (goroutines, heap, fds, link queues) at this interval; 0 = off")
		profileDir = fs.String("profile-dir", "", "capture pprof profiles into this directory on an orchestrator PROF request or on failure")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *control == "" {
		fs.Usage()
		return fmt.Errorf("-control is required: p2pnode runs under the scenario runner (cmd/p2pscenario)")
	}
	if *n < 2 || *t < 0 || 2**t+1 > *n || *id < 0 || *id >= *n {
		return fmt.Errorf("invalid sizes id=%d n=%d t=%d", *id, *n, *t)
	}
	if *epochs < 1 || *resume < 0 || *resume >= *epochs {
		return fmt.Errorf("invalid epoch schedule: epochs=%d resume-epoch=%d", *epochs, *resume)
	}
	kind, err := deploy.LookupKind(*mode)
	if err != nil {
		return err
	}
	slot, err := scenario.EpochRounds(*mode, *n, *t)
	if err != nil {
		return err
	}
	sched, err := chaos.ParseSchedule(*faults)
	if err != nil {
		return err
	}
	self := wire.NodeID(*id)

	// Setup phase: launch and attest this node's own enclave, seeded from
	// the demo secret so a relaunched incarnation announces the same
	// quote and initial sequence number.
	service, err := enclave.NewAttestationService(mrand.New(mrand.NewSource(demoSecret)))
	if err != nil {
		return err
	}
	program := []byte("sgxp2p/p2pnode/v1")
	rng := mrand.New(mrand.NewSource(demoSecret ^ int64(*id+1)*0x9E3779B9))
	encl, err := enclave.Launch(program, self, rng, enclave.NewWallClock())
	if err != nil {
		return err
	}
	seq, err := encl.RandomSeq()
	if err != nil {
		return err
	}

	// The directory and start instant come from the runner's barrier.
	port, err := tcpnet.Listen(self, *listenAddr)
	if err != nil {
		return err
	}
	defer port.Close()
	ctrl, err := dialControl(*control, scenario.Entry{Addr: port.Addr(), Quote: service.Attest(encl), Seq: seq})
	if err != nil {
		return err
	}
	defer ctrl.Close()
	table, start, err := ctrl.AwaitStart(*n)
	if err != nil {
		return err
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
	results := &scenario.NodeResult{ID: *id, Mode: *mode, N: *n, T: *t, Byz: scenario.Byzantine(sched, *id)}
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
		ctrl.Fail(ferr)
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

	// Slow-node shaping, applied before any traffic flows.
	port.SetSendDelayAll(*slow)

	// Preflight: every peer must be accepting connections. Without it a
	// missing peer means hanging until the run timeout with nothing to
	// show; with it the node exits nonzero promptly, telemetry dumped.
	if perr := preflight(table, self, connectTimeout); perr != nil {
		return fail(perr)
	}
	addrs := make(map[wire.NodeID]string, *n)
	roster := runtime.Roster{
		Quotes:      make([]enclave.Quote, *n),
		ServiceKey:  service.VerifyKey(),
		Measurement: encl.Measurement(),
	}
	seqs := make([]uint64, *n)
	for i, e := range table {
		addrs[wire.NodeID(i)] = e.Addr
		roster.Quotes[i] = e.Quote
		seqs[i] = e.Seq
	}
	port.Connect(addrs)

	// The node runs on its own OS, as every simulated node does: honest
	// until one of the schedule's flips names it.
	nodeOS := adversary.New(self, port, demoSecret)
	peer, err := runtime.NewPeer(encl, nodeOS, roster, runtime.Config{
		N: *n, T: *t, Delta: *delta, Trace: trace, Metrics: metrics,
	})
	if err != nil {
		return fail(err)
	}
	if err = peer.InstallSeqs(seqs); err != nil {
		return fail(err)
	}

	// The epoch schedule: epoch e starts at start + e·window, and the
	// node's flips count schedule rounds, epoch e's round r being
	// e·slot+r. Every epoch is closed at its boundary, as deploy closes an
	// instance — one a relaunched process missed as soon as it starts.
	var v wire.Value
	copy(v[:], *message)
	flips := chaos.NewFlips(nodeOS, trace, sched)
	window := scenario.EpochWindow(slot, *delta)
	fmt.Printf("node %d: listening on %s, %s run: epochs %d..%d in %d-round slots of %v\n",
		self, port.Addr(), kind.Name, *resume, *epochs-1, slot, window)
	for e := 0; e < *epochs; e++ {
		var proto deploy.Protocol // nil for an epoch a previous incarnation ran
		if e >= *resume {
			epochStart := start.Add(time.Duration(e) * window)
			if wait := time.Until(epochStart); e == *resume && wait < 0 {
				return fail(fmt.Errorf("epoch %d start already passed by %v; pick a later start", e, -wait))
			}
			if proto, err = kind.New(peer, *t, v); err != nil {
				return fail(err)
			}
			base, done := e*slot, make(chan deploy.Decision, 1)
			hooked := &hooks{
				Protocol: proto,
				onRound:  func(rnd uint32) { flips.Through(base + int(rnd)) },
				onFinish: func() { done <- kind.Decision(proto) },
			}
			port.After(0, func() {
				flips.Through(base + 1)
				peer.StartIn(hooked, proto.Rounds(), time.Until(epochStart))
			})

			// The epoch deadline leaves the full window plus one spare
			// window of wall-clock grace (process scheduling, dump time).
			deadline := time.Until(epochStart) + 2*window
			res := scenario.EpochResult{Epoch: e}
			select {
			case dec := <-done:
				res.OK, res.Accepted, res.Round = dec.Decided, dec.Accepted, dec.Round
				switch {
				case !dec.Decided:
					res.Note = "no decision"
				case !dec.Accepted:
					res.Note = fmt.Sprintf("bottom in round %d", dec.Round)
				default:
					res.Value = fmt.Sprintf("%x", dec.Value[:])
					res.Note = fmt.Sprintf("accepted %s in round %d", res.Value, dec.Round)
				}
			case <-time.After(deadline):
				// A byzantine node halted by P4 never finishes — that is
				// the protocol working, not a failure; its schedule stays
				// aligned.
				res.Note = "no finish before epoch deadline"
				if !results.Byz {
					err = fmt.Errorf("epoch %d timed out after %v", e, deadline)
				}
			}
			fmt.Printf("node %d: epoch %d: %s\n", self, e, res.Note)
			results.Epochs = append(results.Epochs, res)
			if err != nil {
				return fail(err)
			}
		}
		port.After(0, func() { deploy.CloseInstance(peer, proto) })
	}
	// Artifacts before DONE: the orchestrator may reap the fleet the
	// moment the last node reports, so the final drain must have reached
	// the trace file, and the result file must be on disk, when the
	// control message leaves.
	if derr := dump(); derr != nil {
		return fail(derr)
	}
	ctrl.Done()
	return nil
}

// preflight verifies every peer's listener accepts a TCP connection
// within the window, retrying until the deadline. A peer that never
// comes up is reported by id and address so the failure is actionable.
func preflight(table []scenario.Entry, self wire.NodeID, window time.Duration) error {
	deadline := time.Now().Add(window)
	for id, e := range table {
		if wire.NodeID(id) == self {
			continue
		}
		for {
			c, err := net.DialTimeout("tcp", e.Addr, time.Second)
			if err == nil {
				c.Close()
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("peer %d (%s) never accepted a connection within %v: %w", id, e.Addr, window, err)
			}
			time.Sleep(100 * time.Millisecond)
		}
	}
	return nil
}

// controlConn is the node side of the scenario runner's barrier: a
// line-oriented TCP conversation (READY → PEERS+START → DONE/FAIL;
// internal/scenario owns the READY, PEERS and START formats),
// which in -stream mode also multiplexes live telemetry (EV/MT lines
// node→runner) and profile requests (PROF lines runner→node). The write
// mutex keeps the exporter's lines whole against DONE/FAIL.
type controlConn struct {
	conn net.Conn
	rd   *bufio.Reader
	mu   sync.Mutex
}

// dialControl connects to the runner and announces this node's
// directory entry.
func dialControl(addr string, self scenario.Entry) (*controlConn, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", addr, err)
	}
	if err := scenario.WriteReady(conn, self); err != nil {
		conn.Close()
		return nil, err
	}
	return &controlConn{conn: conn, rd: bufio.NewReader(conn)}, nil
}

// AwaitStart blocks until the runner releases the barrier, returning the
// directory of a fleet of n and the shared start instant.
func (c *controlConn) AwaitStart(n int) ([]scenario.Entry, time.Time, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return nil, time.Time{}, err
	}
	return scenario.ReadRelease(c.rd, n)
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

// hooks forwards a protocol, running onRound before each of its rounds
// and onFinish after its finish.
type hooks struct {
	runtime.Protocol
	onRound  func(rnd uint32)
	onFinish func()
}

func (h *hooks) OnRound(rnd uint32) {
	h.onRound(rnd)
	h.Protocol.OnRound(rnd)
}

func (h *hooks) OnFinish() {
	h.Protocol.OnFinish()
	h.onFinish()
}
