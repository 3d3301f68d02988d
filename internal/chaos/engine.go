package chaos

import (
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// EngineStats counts what the engine did during a run.
type EngineStats struct {
	// Crashes, Restarts, Flips, Partitions and Heals count applied
	// schedule events. RestartFailures counts restarts that could not be
	// applied (e.g. no live node left to copy state from).
	Crashes, Restarts, RestartFailures, Flips, Partitions, Heals uint64
	// CutDrops counts envelopes dropped by an active partition (both
	// send-side and delivery-side filtering).
	CutDrops uint64
	// DrainReleased and DrainDiscarded count held envelopes disposed of
	// by Drain.
	DrainReleased, DrainDiscarded int
}

// Engine compiles a Schedule into virtual-clock events that act on a
// deployment's nodes and their OSes (deploy.Deployment.OS). Usage:
//
//	eng := chaos.NewEngine(sched)
//	d, _ := deploy.New(deploy.Options{...})
//	eng.Arm(d)          // BEFORE peers Start: events outrank round ticks
//	... start peers, d.Run() ...
//	eng.Drain(); d.Run()  // deterministic disposal of held envelopes
//
// Every event fires alone, between the lanes' windows; the engine must
// not be shared across deployments.
type Engine struct {
	sched *Schedule
	d     *deploy.Deployment
	trace *telemetry.Tracer
	stats EngineStats
}

// NewEngine builds an engine for the given schedule. The same (schedule,
// deployment seed) pair replays the identical run: the deployment seeds
// each node's OS (corruption bits, drain coins).
func NewEngine(sched *Schedule) *Engine {
	if sched == nil {
		sched = NewSchedule()
	}
	return &Engine{sched: sched}
}

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats {
	st := e.stats
	if e.d != nil {
		for id := range e.d.Peers {
			st.CutDrops += e.d.OS(wire.NodeID(id)).Stats().Cut
		}
	}
	return st
}

// Arm schedules every event of the schedule on the deployment's virtual
// clock, anchored at the current instant as round 1. Call it after
// deploy.New and BEFORE starting the peers: the simulator breaks
// same-instant ties by scheduling order, so arming first guarantees
// every chaos event at a round boundary fires before any peer's round
// tick at that boundary — the ordering the determinism contract rests on.
func (e *Engine) Arm(d *deploy.Deployment) {
	e.d = d
	e.trace = d.Opts.Trace
	t0 := d.Sim.Now()
	rd := d.RoundDuration()
	for _, ev := range e.sched.Events() {
		d.Sim.Schedule(t0+time.Duration(ev.Round-1)*rd, func() { e.apply(ev) })
	}
}

// apply executes one schedule event.
func (e *Engine) apply(ev Event) {
	rnd := uint32(ev.Round)
	switch ev.Kind {
	case KindCrash:
		if e.d.Stop(ev.Node) == nil {
			e.stats.Crashes++
			e.trace.Record(ev.Node, rnd, telemetry.KindCrash, wire.NoNode, 0, "")
		}
	case KindRestart:
		if err := e.d.Restart(ev.Node); err == nil {
			e.stats.Restarts++
			e.trace.Record(ev.Node, rnd, telemetry.KindRestart, wire.NoNode, 0, "")
		} else {
			e.stats.RestartFailures++
			// The deploy errors are fixed sentinels, so the note stays
			// deterministic across runs of the same seed.
			e.trace.Record(ev.Node, rnd, telemetry.KindRestartFail, wire.NoNode, 0, err.Error())
		}
	case KindFlip:
		flip(e.d.OS(ev.Node), e.trace, ev)
		e.stats.Flips++
	case KindPartition:
		e.partition(groupOf(ev.Groups, e.d.Opts.N))
		e.stats.Partitions++
		e.trace.Record(wire.NoNode, rnd, telemetry.KindPartition, wire.NoNode,
			uint64(len(ev.Groups)), groupsString(ev.Groups))
	case KindHeal:
		e.partition(nil)
		e.stats.Heals++
		e.trace.Record(wire.NoNode, rnd, telemetry.KindHeal, wire.NoNode, 0, "")
	}
}

// partition installs a partition map (nil heals) on every node's OS, which
// cuts the links across it in both directions, below its hold and release:
// a partition is physics, not policy.
func (e *Engine) partition(group []int) {
	for id := range e.d.Peers {
		e.d.OS(wire.NodeID(id)).Partition(group)
	}
}

// Drain disposes of every envelope still held by a delay behavior, node
// by node in id order, each by its OS's own seeded coin — so teardown is
// part of the deterministic trace. Run the simulator once more afterwards
// to let released envelopes settle (they arrive stale and are dropped by
// the lockstep check, but their delivery events are part of the trace).
func (e *Engine) Drain() (released, discarded int) {
	for id := range e.d.Peers {
		r, d := e.d.OS(wire.NodeID(id)).Drain()
		released += r
		discarded += d
	}
	e.stats.DrainReleased += released
	e.stats.DrainDiscarded += discarded
	return released, discarded
}

// flip is the one flip rule, the engine's and a live node's (Flips): the
// event's behaviour goes on the node's OS, and the trace records it.
func flip(os *adversary.OS, trace *telemetry.Tracer, ev Event) {
	os.Set(ev.Behavior)
	trace.Record(ev.Node, uint32(ev.Round), telemetry.KindFlip, wire.NoNode, 0, ev.Behavior.String())
}

// Flips is one node's cursor over a run's fault schedule, the flips a
// live node sets on its own OS: the runner crashes and restarts
// processes, and a node sets its own behaviour. The engine fires a flip
// before the round's ticks; a live node fires it inside its tick, after
// the round's record.
type Flips struct {
	os     *adversary.OS
	trace  *telemetry.Tracer
	events []Event // the schedule's events not yet passed, in order
}

// NewFlips returns the cursor of the node os belongs to over sched,
// recording into trace (nil: no records).
func NewFlips(os *adversary.OS, trace *telemetry.Tracer, sched *Schedule) *Flips {
	return &Flips{os: os, trace: trace, events: sched.Events()}
}

// Through applies every pending flip of this node up to schedule round r,
// in schedule order. A live node calls it before an epoch's start with
// the epoch's first round, and in each round before the protocol acts, so
// a flip lands before the first send of its round — and one in an epoch's
// idle slack, or before a relaunched incarnation's first epoch, before
// the next round it runs.
func (f *Flips) Through(r int) {
	for len(f.events) > 0 && f.events[0].Round <= r {
		ev := f.events[0]
		f.events = f.events[1:]
		if ev.Kind == KindFlip && ev.Node == f.os.ID() {
			flip(f.os, f.trace, ev)
		}
	}
}
