package chaos

import (
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
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

// Engine compiles a Schedule into per-node transport wrappers plus
// virtual-clock events. Usage:
//
//	eng := chaos.NewEngine(sched, seed)
//	d, _ := deploy.New(deploy.Options{..., Wrap: eng.Wrap})
//	eng.Arm(d)          // BEFORE peers Start: events outrank round ticks
//	... start peers, d.Run() ...
//	eng.Drain(); d.Run()  // deterministic disposal of held envelopes
//
// The engine is single-goroutine like everything else on the simulator's
// event loop; it must not be shared across deployments.
type Engine struct {
	sched *Schedule
	seed  int64
	d     *deploy.Deployment
	trace *telemetry.Tracer
	nodes []*nodeState
	// group is the active partition map (node → group index); nil when
	// the network is whole.
	group []int
	stats EngineStats
}

// nodeState is the engine's per-node wiring. The Switchable persists
// across crash–restart re-wraps so a flipped behavior survives a reboot
// of the same machine (the OS is the adversary, not the enclave).
type nodeState struct {
	sw *adversary.Switchable
	os *adversary.OS
}

// NewEngine builds an engine for the given schedule. seed drives the
// byzantine OS rngs (corruption bits, drain coins); the same (schedule,
// seed) pair replays the identical run.
func NewEngine(sched *Schedule, seed int64) *Engine {
	if sched == nil {
		sched = NewSchedule()
	}
	return &Engine{sched: sched, seed: seed}
}

// Schedule returns the engine's schedule.
func (e *Engine) Schedule() *Schedule { return e.sched }

// Stats returns a snapshot of the engine's counters.
func (e *Engine) Stats() EngineStats { return e.stats }

// OS returns node id's byzantine OS wrapper (nil before Wrap ran for it).
func (e *Engine) OS(id wire.NodeID) *adversary.OS {
	if int(id) >= len(e.nodes) || e.nodes[id] == nil {
		return nil
	}
	return e.nodes[id].os
}

// node returns (creating if needed) the per-node state.
func (e *Engine) node(id wire.NodeID) *nodeState {
	for int(id) >= len(e.nodes) {
		e.nodes = append(e.nodes, nil)
	}
	if e.nodes[id] == nil {
		e.nodes[id] = &nodeState{sw: adversary.NewSwitchable(nil)}
	}
	return e.nodes[id]
}

// Wrap is the deploy.TransportWrapper: it stacks, from the peer down,
// the byzantine OS (behavior flips) over the chaos transport (partition
// cuts) over the genuine port. The partition sits below the OS so that
// even a Released or drained envelope cannot cross an active cut — a
// partition is physics, not policy. Wrap is re-entrant per node:
// deploy.Restart re-wraps a rebooted node and the node keeps its
// Switchable (and thus any flipped behavior).
func (e *Engine) Wrap(id wire.NodeID, tr runtime.Transport) runtime.Transport {
	ns := e.node(id)
	ct := &transport{eng: e, id: id, inner: tr}
	ns.os = adversary.Wrap(id, ct, ns.sw, e.seed^int64(id+1)*0x5ca1ab1e)
	return ns.os
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
		e.node(ev.Node).sw.Set(ev.Behavior)
		e.stats.Flips++
		label := ev.Label
		if ev.Behavior == nil {
			label = "honest"
		}
		e.trace.Record(ev.Node, rnd, telemetry.KindFlip, wire.NoNode, 0, label)
	case KindPartition:
		e.group = groupOf(ev.Groups, e.d.Opts.N)
		e.stats.Partitions++
		e.trace.Record(wire.NoNode, rnd, telemetry.KindPartition, wire.NoNode,
			uint64(len(ev.Groups)), groupsString(ev.Groups))
	case KindHeal:
		e.group = nil
		e.stats.Heals++
		e.trace.Record(wire.NoNode, rnd, telemetry.KindHeal, wire.NoNode, 0, "")
	}
}

// cut reports whether an active partition separates a and b.
func (e *Engine) cut(a, b wire.NodeID) bool {
	if e.group == nil {
		return false
	}
	if int(a) >= len(e.group) || int(b) >= len(e.group) {
		return true // a node outside the partition map is unreachable
	}
	return e.group[a] != e.group[b]
}

// Drain disposes of every envelope still held by a delay behavior, node
// by node in id order, each by its OS's own seeded coin — so teardown is
// part of the deterministic trace. Run the simulator once more afterwards
// to let released envelopes settle (they arrive stale and are dropped by
// the lockstep check, but their delivery events are part of the trace).
func (e *Engine) Drain() (released, discarded int) {
	for _, ns := range e.nodes {
		if ns == nil || ns.os == nil {
			continue
		}
		r, d := ns.os.Drain()
		released += r
		discarded += d
	}
	e.stats.DrainReleased += released
	e.stats.DrainDiscarded += discarded
	return released, discarded
}

// transport is the chaos layer of a node's stack: it enforces partition
// cuts in both directions. Crash isolation is handled one layer further
// down (simnet detach via deploy.Stop), so this type stays stateless per
// message.
type transport struct {
	eng   *Engine
	id    wire.NodeID
	inner runtime.Transport
}

var _ runtime.Transport = (*transport)(nil)

// Send implements runtime.Transport, dropping envelopes across a cut.
func (t *transport) Send(dst wire.NodeID, payload []byte) {
	if t.eng.cut(t.id, dst) {
		t.eng.stats.CutDrops++
		return
	}
	t.inner.Send(dst, payload)
}

// SetHandler implements runtime.Transport; deliveries across a cut are
// dropped too, so an envelope already in flight when the partition
// starts does not leak through it.
func (t *transport) SetHandler(h func(src wire.NodeID, payload []byte)) {
	t.inner.SetHandler(func(src wire.NodeID, payload []byte) {
		if t.eng.cut(src, t.id) {
			t.eng.stats.CutDrops++
			return
		}
		h(src, payload)
	})
}

// Detach implements runtime.Transport.
func (t *transport) Detach() { t.inner.Detach() }

// After implements runtime.Transport.
func (t *transport) After(d time.Duration, fn func()) { t.inner.After(d, fn) }

// Now implements runtime.Transport.
func (t *transport) Now() time.Duration { return t.inner.Now() }
