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
// The control connection is the node's one telemetry sink
// (scenario.Control): its trace, span hops included, its metrics with
// the resource probe's gauges, and its per-epoch results ride it to the
// runner, which writes every artifact of the run. On a PROF request, or
// when it fails, the node writes pprof profiles into -profile-dir.
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
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/chaos"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/keyed"
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
		profileDir = fs.String("profile-dir", "", "capture pprof profiles into this directory on a runner PROF request or on failure")
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
	service, err := enclave.NewAttestationService(keyed.Stream(demoSecret, keyed.Attestation, 0))
	if err != nil {
		return err
	}
	program := []byte("sgxp2p/p2pnode/v1")
	encl, err := enclave.Launch(program, self, keyed.Stream(demoSecret, keyed.Enclave, uint64(self)), enclave.NewWallClock())
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
	ctrl, err := scenario.DialControl(*control, scenario.Entry{Addr: port.Addr(), Quote: service.Attest(encl), Seq: seq}, *profileDir)
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
	trace := telemetry.New(telemetry.Options{Clock: port.Now, Spans: true})
	metrics := telemetry.NewMetrics()
	port.SetMetrics(metrics)
	ctrl.Export(trace, metrics, func() (int, int, int) {
		qs := port.QueueStats()
		return qs.Links, qs.Total, qs.Max
	})
	results := &scenario.NodeResult{ID: *id, Mode: *mode, N: *n, T: *t, Byz: scenario.Byzantine(sched, *id)}
	// fail ships what the node has, its telemetry and its results so far,
	// and reports the error: a run that never gets off the ground still
	// leaves its trace behind.
	fail := func(ferr error) error {
		ctrl.Finish(results, ferr)
		return ferr
	}

	// A terminating signal finishes the conversation before exiting: a
	// SIGTERM or a manual interrupt ships the same telemetry as a failed
	// run. (The runner's scheduled crashes are SIGKILLs, which cannot be
	// caught — there the trace ends at the exporter's last drain.)
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	go func() {
		sig := <-sigc
		signal.Stop(sigc)
		fmt.Fprintf(os.Stderr, "p2pnode: %v: flushing telemetry before exit\n", sig)
		ctrl.Finish(results, fmt.Errorf("terminated by %v", sig))
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
	// The exporter's final drain and the result precede DONE on the
	// connection: the runner may reap the fleet the moment the last node
	// reports.
	ctrl.Finish(results, nil)
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
