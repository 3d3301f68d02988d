package chaos

import (
	"fmt"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
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
// wrapped and armed with a schedule's fault engine, the drain that settles
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
	eng := NewEngine(sched, seed)
	d, err := deploy.New(deploy.Options{
		N: n, T: t, Seed: seed, Wrap: eng.Wrap,
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
	v, err := h.d.Encls[0].RandomValue()
	if err != nil {
		return nil, err
	}
	engines, err := h.d.Broadcast(erb.Config{T: t, ExpectedInitiators: []wire.NodeID{0}}, v, h.settle)
	if err != nil {
		return nil, err
	}
	o := h.outcome()
	o.InitValue = v
	for i := range o.Nodes {
		no := &o.Nodes[i]
		res, ok := engines[i].Result(0)
		no.Decided = ok
		no.Accepted = res.Accepted
		no.Value = res.Value
		no.Round = res.Round
	}
	return o, nil
}

// RunERNG runs one seeded chaos schedule against an ERNG epoch (basic or
// optimized beacon) on a fresh deployment. The schedule is generated for
// the protocol's own round count.
func RunERNG(seed int64, n, t int, optimized bool) (*Outcome, error) {
	rounds, err := erngRounds(n, t, optimized)
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
	protos, err := h.d.Epoch(t, optimized, h.settle)
	if err != nil {
		return nil, err
	}
	o := h.outcome()
	for i := range o.Nodes {
		no := &o.Nodes[i]
		res, ok := protos[i].Result()
		no.Decided = ok
		no.Accepted = res.OK
		no.Value = res.Value
		no.Round = res.Round
	}
	return o, nil
}

// erngRounds resolves the lockstep round count of a beacon variant.
func erngRounds(n, t int, optimized bool) (int, error) {
	if !optimized {
		return t + 2, nil
	}
	params, err := erng.ResolveParams(n, t, 0, 0)
	if err != nil {
		return 0, err
	}
	return params.Rounds(), nil
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
// the reproduction hint.
func CheckERB(o *Outcome) error {
	initiatorHonest := true
	for _, id := range o.Faulty {
		if id == o.Initiator {
			initiatorHonest = false
		}
	}
	bound := o.F + 2
	if o.T+2 < bound {
		bound = o.T + 2
	}
	var ref *NodeOutcome
	for i := range o.Nodes {
		no := &o.Nodes[i]
		if !no.Honest {
			continue
		}
		if no.Halted {
			return o.violation("liveness", no.Node, "honest node %d executed halt-on-divergence", no.Node)
		}
		if no.Stopped {
			return o.violation("liveness", no.Node, "honest node %d is stopped", no.Node)
		}
		if !no.Decided {
			return o.violation("termination", no.Node, "honest node %d never decided", no.Node)
		}
		if ref == nil {
			ref = no
		} else if no.Accepted != ref.Accepted || no.Value != ref.Value {
			return o.violation("agreement", no.Node, "honest nodes %d and %d decided differently (accepted=%v/%v)",
				ref.Node, no.Node, ref.Accepted, no.Accepted)
		}
		if no.Accepted {
			if no.Value != o.InitValue {
				return o.violation("integrity", no.Node, "honest node %d accepted a value the initiator never sent", no.Node)
			}
			if int(no.Round) > bound {
				return o.violation("termination", no.Node, "honest node %d accepted at round %d > min{f+2,t+2}=%d",
					no.Node, no.Round, bound)
			}
		} else {
			if int(no.Round) > o.T+3 {
				return o.violation("termination", no.Node, "honest node %d output bottom at round %d > t+3=%d",
					no.Node, no.Round, o.T+3)
			}
			if initiatorHonest {
				return o.violation("validity", no.Node, "honest initiator %d broadcast, honest node %d output bottom",
					o.Initiator, no.Node)
			}
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
