package chaos

import (
	"fmt"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// NodeOutcome is one node's view at the end of a chaos run.
type NodeOutcome struct {
	Node wire.NodeID
	// Honest is false for nodes in the schedule's faulty set.
	Honest bool
	// Stopped and Halted report the node's terminal liveness: crashed
	// (and not restarted) vs churned out by halt-on-divergence (P4).
	Stopped, Halted bool
	// Decided is true once the node decided; Accepted distinguishes a
	// real value from bottom (for ERNG it mirrors Result.OK).
	Decided, Accepted bool
	// Value is the decided value (ERB: the broadcast m; ERNG: the common
	// random number). Round is the decision round.
	Value wire.Value
	Round uint32
	// LastRound is the highest lockstep round the node ticked (from the
	// telemetry tracer) — a crashed node's stops short.
	LastRound uint32
}

// Outcome is the full, comparable result of one chaos run. Two runs of
// the same (seed, n, t) are bit-for-bit identical: equal TraceHash,
// equal Fired, equal Nodes.
type Outcome struct {
	Seed    int64
	N, T, F int
	Faulty  []wire.NodeID
	// Schedule is the canonical rendering of the fault program.
	Schedule string
	// Initiator and InitValue describe the (single) ERB broadcast under
	// test; unused for ERNG runs.
	Initiator wire.NodeID
	InitValue wire.Value
	// TraceHash fingerprints the simulator's event interleaving; Fired
	// counts its events.
	TraceHash uint64
	Fired     uint64
	Nodes     []NodeOutcome
	Stats     EngineStats
	// Trace is the run's telemetry tracer — the single event stream every
	// per-node bookkeeping above derives from, exportable as JSONL.
	Trace *telemetry.Tracer
	// Metrics is the run's metric registry (runtime, channel and network
	// counters), exportable in Prometheus text format.
	Metrics *telemetry.Metrics
	// Events and EventsHash summarize the telemetry stream (event count
	// and FNV-1a fingerprint) for cheap outcome comparison.
	Events     uint64
	EventsHash uint64
}

// Repro returns the one-line reproduction hint printed by failing
// invariant checks.
func (o *Outcome) Repro() string {
	return fmt.Sprintf("reproduce with: p2pexp -experiment chaos -chaos-seed %d (N=%d t=%d schedule %s)",
		o.Seed, o.N, o.T, o.Schedule)
}

// RunERB runs one seeded chaos schedule against a single ERB broadcast
// (initiator node 0) on a fresh simulated deployment of n nodes
// tolerating t faults. The schedule is Generate(seed, n, t, t+2).
func RunERB(seed int64, n, t int) (*Outcome, error) {
	return RunERBSchedule(seed, n, t, Generate(seed, n, t, t+2))
}

// harness is the one chaos prologue and epilogue: a fresh deployment
// armed with a schedule's fault engine, the drain that settles
// a run on it, and the outcome read off it afterwards. The protocol under
// test runs in between, through the deployment's instance driver with
// settle as its drain.
type harness struct {
	d     *deploy.Deployment
	eng   *Engine
	sched *Schedule
}

// arm validates the schedule and builds the harness for n nodes
// tolerating t faults. The deployment records into a tracer — the single
// event stream the outcome's per-node bookkeeping (LastRound, violation
// timelines) derives from — and a metric registry.
func arm(seed int64, n, t int, sched *Schedule) (*harness, error) {
	if err := sched.Validate(n, t); err != nil {
		return nil, err
	}
	eng := NewEngine(sched)
	d, err := deploy.New(deploy.Options{
		N: n, T: t, Seed: seed,
		Trace: telemetry.New(telemetry.Options{}), Metrics: telemetry.NewMetrics(),
	})
	if err != nil {
		return nil, err
	}
	eng.Arm(d)
	return &harness{d: d, eng: eng, sched: sched}, nil
}

// settle drains the run to completion: the main protocol window, then the
// deterministic disposal of envelopes still held by delay behaviors, then
// the stale deliveries that disposal produced. All three are part of the
// fingerprinted trace.
func (h *harness) settle() error {
	if err := h.d.Run(); err != nil {
		return err
	}
	h.eng.Drain()
	return h.d.Run()
}

// RunERBSchedule is RunERB with an explicit schedule.
func RunERBSchedule(seed int64, n, t int, sched *Schedule) (*Outcome, error) {
	h, err := arm(seed, n, t, sched)
	if err != nil {
		return nil, err
	}
	return h.run("erb")
}

// RunERNG runs one seeded chaos schedule against an ERNG epoch (basic or
// optimized beacon) on a fresh deployment. The schedule is generated for
// the protocol's own round count.
func RunERNG(seed int64, n, t int, optimized bool) (*Outcome, error) {
	k, err := deploy.LookupKind(beaconMode(optimized))
	if err != nil {
		return nil, err
	}
	rounds, err := k.Rounds(n, t)
	if err != nil {
		return nil, err
	}
	return RunERNGSchedule(seed, n, t, optimized, Generate(seed, n, t, rounds))
}

// RunERNGSchedule is RunERNG with an explicit schedule (the bias tests
// build targeted omission schedules directly).
func RunERNGSchedule(seed int64, n, t int, optimized bool, sched *Schedule) (*Outcome, error) {
	h, err := arm(seed, n, t, sched)
	if err != nil {
		return nil, err
	}
	return h.run(beaconMode(optimized))
}

// beaconMode is the catalogue name of a beacon variant.
func beaconMode(optimized bool) string {
	if optimized {
		return "erng-opt"
	}
	return "erng"
}

// run runs one instance of the catalogue's kind mode — erb broadcasting a
// random value from node 0, or a beacon epoch — settles the run, and
// reads every node's decision through the catalogue.
func (h *harness) run(mode string) (*Outcome, error) {
	k, err := deploy.LookupKind(mode)
	if err != nil {
		return nil, err
	}
	var v wire.Value
	if k.Name == "erb" {
		// Only a broadcast draws its value: a beacon's node 0 keeps its
		// enclave's stream for its own contribution.
		if v, err = h.d.Encls[0].RandomValue(); err != nil {
			return nil, err
		}
	}
	protos, err := h.d.RunKind(k, h.d.Opts.T, v, h.settle)
	if err != nil {
		return nil, err
	}
	o := h.outcome()
	o.InitValue = v
	for i := range o.Nodes {
		dec, no := k.Decision(protos[i]), &o.Nodes[i]
		no.Decided, no.Accepted, no.Value, no.Round = dec.Decided, dec.Accepted, dec.Value, dec.Round
	}
	return o, nil
}

// outcome fills the run-level fields common to every settled run.
func (h *harness) outcome() *Outcome {
	d, n := h.d, h.d.Opts.N
	faulty := h.sched.Faulty(n)
	isFaulty := make([]bool, n)
	for _, id := range faulty {
		isFaulty[id] = true
	}
	o := &Outcome{
		Seed:       d.Opts.Seed,
		N:          n,
		T:          d.Opts.T,
		F:          len(faulty),
		Faulty:     faulty,
		Schedule:   h.sched.String(),
		TraceHash:  d.Sim.TraceHash(),
		Fired:      d.Sim.FiredCount(),
		Nodes:      make([]NodeOutcome, n),
		Stats:      h.eng.Stats(),
		Trace:      d.Opts.Trace,
		Metrics:    d.Opts.Metrics,
		Events:     d.Opts.Trace.EventCount(),
		EventsHash: d.Opts.Trace.Hash(),
	}
	for i := range o.Nodes {
		o.Nodes[i] = NodeOutcome{
			Node:      wire.NodeID(i),
			Honest:    !isFaulty[i],
			Stopped:   d.Stopped(wire.NodeID(i)),
			Halted:    d.Peers[i].Halted(),
			LastRound: d.Opts.Trace.LastRound(wire.NodeID(i)),
		}
	}
	return o
}

// CheckERB asserts the paper's ERB properties over the honest nodes of a
// chaos outcome: agreement, validity (honest initiator), integrity, and
// termination within min{f+2, t+2} rounds (bottom by t+3). A nil return
// means every invariant held; the error message embeds the schedule and
// the reproduction hint. It is CheckMuxERB's check of one instance that
// started in round 1.
func CheckERB(o *Outcome) error {
	if err := o.checkLiveness(); err != nil {
		return err
	}
	decs := make([]InstanceDecision, len(o.Nodes))
	for i, no := range o.Nodes {
		decs[i] = InstanceDecision{Decided: no.Decided, Accepted: no.Accepted,
			Value: no.Value, Round: no.Round, StartRound: 1}
	}
	return o.checkBroadcast(o.Initiator, o.InitValue, decs, "", o.violation)
}

// checkLiveness fails on the first honest node that halted itself (P4) or
// is stopped.
func (o *Outcome) checkLiveness() error {
	for _, no := range o.Nodes {
		if !no.Honest {
			continue
		}
		if no.Halted {
			return o.violation("liveness", no.Node, "honest node %d executed halt-on-divergence", no.Node)
		}
		if no.Stopped {
			return o.violation("liveness", no.Node, "honest node %d is stopped", no.Node)
		}
	}
	return nil
}

// checkBroadcast asserts agreement, integrity, validity and the round
// bounds of one broadcast over the honest nodes' decisions decs[i]; the
// bounds apply to the round relative to the instance's start. in names the
// instance in a message ("" for a run of one broadcast), and fail reports a
// violation with its flight dump.
func (o *Outcome) checkBroadcast(initiator wire.NodeID, value wire.Value, decs []InstanceDecision, in string,
	fail func(property string, node wire.NodeID, format string, args ...any) error) error {
	bound := min(o.F+2, o.T+2)
	var ref *InstanceDecision
	var refNode wire.NodeID
	for i := range decs {
		if !o.Nodes[i].Honest {
			continue
		}
		dec, node := &decs[i], wire.NodeID(i)
		if !dec.Decided {
			return fail("termination", node, "honest node %d never decided%s", node, in)
		}
		if ref == nil {
			ref, refNode = dec, node
		} else if dec.Accepted != ref.Accepted || dec.Value != ref.Value {
			return fail("agreement", node, "honest nodes %d and %d decided%s differently (accepted=%v/%v)",
				refNode, node, in, ref.Accepted, dec.Accepted)
		}
		rel := dec.Round - (dec.StartRound - 1)
		switch {
		case dec.Accepted && dec.Value != value:
			return fail("integrity", node, "honest node %d accepted a value initiator %d never sent%s", node, initiator, in)
		case dec.Accepted && int(rel) > bound:
			return fail("termination", node, "honest node %d accepted%s at relative round %d > min{f+2,t+2}=%d",
				node, in, rel, bound)
		case !dec.Accepted && int(rel) > o.T+3:
			return fail("termination", node, "honest node %d output bottom%s at relative round %d > t+3=%d",
				node, in, rel, o.T+3)
		case !dec.Accepted && o.Nodes[initiator].Honest:
			return fail("validity", node, "honest initiator %d broadcast%s, honest node %d output bottom",
				initiator, in, node)
		}
	}
	return nil
}

// CheckERNG asserts agreement and termination of a beacon epoch over the
// honest nodes: every honest node decides, and all honest decisions are
// identical (same OK flag, same random number).
func CheckERNG(o *Outcome) error {
	var ref *NodeOutcome
	for i := range o.Nodes {
		no := &o.Nodes[i]
		if !no.Honest {
			continue
		}
		if no.Halted {
			return o.violation("liveness", no.Node, "honest node %d executed halt-on-divergence", no.Node)
		}
		if !no.Decided {
			return o.violation("termination", no.Node, "honest node %d never decided", no.Node)
		}
		if ref == nil {
			ref = no
		} else if no.Accepted != ref.Accepted || no.Value != ref.Value {
			return o.violation("agreement", no.Node, "honest nodes %d and %d decided different beacon outputs (ok=%v/%v)",
				ref.Node, no.Node, ref.Accepted, no.Accepted)
		}
	}
	return nil
}

// violation formats an invariant failure with the schedule, the repro
// hint, and the offending node's flight-recorder timeline — the exact
// trace that produced the violation.
func (o *Outcome) violation(property string, node wire.NodeID, format string, args ...any) error {
	err := fmt.Errorf("chaos: %s violated: %s — %s", property, fmt.Sprintf(format, args...), o.Repro())
	if flight := o.Trace.FlightString(node, 12); flight != "" {
		err = fmt.Errorf("%w\nflight recorder, node %d (last round %d):\n%s",
			err, node, o.Trace.LastRound(node), flight)
	}
	return err
}
