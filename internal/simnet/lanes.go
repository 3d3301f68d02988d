package simnet

import (
	"time"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// While a window runs on the simulator's workers (vclock.Lanes), nodes
// fire side by side, so nothing a node does may touch what nodes share:
// the traffic counters, the link queue, the latency positions, the detach flags
// other nodes' sends read, the simulator's event queue and its sequence
// numbers, the tracer's stream. Each of those calls — Send, Port.After,
// Port.Detach, a trace record — instead appends an op to the node's log,
// and Commit replays the logs event by event in the serial (time,
// sequence) order. The replay is the same code the serial path runs
// (transmit, Detach, ScheduleLane, Tracer.Append), fed in the same order,
// so every draw, counter, sequence number and trace event comes out the
// same. Only the payload copy happens at Send time, because the caller's
// buffer is gone afterwards. A window may reach the workers part-way — the
// simulator fires its first events inline and hands off the rest when a
// worker it summoned arrives: what fired before BeginWindow took the
// serial path and left nothing in any log.

// opKind says what a logged op replays as. The zero kind ends one
// event's ops.
type opKind uint8

const (
	opEnd opKind = iota
	opSend
	opAfter
	opDetach
	opTrace // the node's next held trace record
)

// op is one held-back effect of a lane event.
type op struct {
	kind  opKind
	d     *delivery     // opSend: the filled record
	after time.Duration // opAfter
	fn    func()        // opAfter
}

// workerPool is what one worker owns during a window: the delivery
// records it holds and the list of lanes it fired. Per-worker, not
// per-lane: a lane's demand for records is unknowable up front (a tick
// multicasts to everyone, a delivery answers with one ACK), and records
// stranded in 256 lane pools cost more allocations and heap than the
// dealing does. Nor is the free list split among the workers up front: a
// round-tick window's demand is all on whichever worker claims the
// multicasting lanes, so an even split runs one pool dry — it allocates —
// while the others strand their share. A worker instead takes recordChunk
// records off the free list whenever its pool is empty — builds a block
// of them into the pool when the free list is dry too — and recycles the
// records of the deliveries it fires into its pool. Run's goroutine is
// worker 0 and does the same: the others are taking from the free list
// while it fires.
type workerPool struct {
	free    []*delivery
	records int   // records built onto free in this window
	slab    *slab // the slab the worker carves payloads from, kept across windows
	claimed []int32
}

// recordChunk is how many records a worker takes off the free list at a
// time: enough that the lock is taken twice per 63-frame multicast, few
// enough that what a worker leaves unused (at most a chunk) strands little.
const recordChunk = 32

// EnableLanes promises the simulator minLatency as the lookahead of this
// network's lane events — no delivery arrives sooner after its send — so
// that it may fire a window of them on several goroutines. The caller
// vouches for what the network cannot see: that every handler and port
// timer touches only its own node's state and reaches the network through
// its own port, and that port timers are no shorter than minLatency.
//
// Each node's op log is carved here from one array, laneOps ops a node,
// so that a fresh deployment's first windows do not grow every log from
// empty.
func (n *Network) EnableLanes() {
	ops := make([]op, len(n.nodes)*laneOps)
	for i := range n.nodes {
		n.nodes[i].log = ops[i*laneOps : i*laneOps : (i+1)*laneOps]
	}
	n.sim.SetLanes(n, len(n.nodes), n.minLatency())
}

// laneOps is the op capacity EnableLanes gives each node's log: a node's
// sends and timers in one window of a small cluster.
const laneOps = 16

// BeginWindow implements vclock.Lanes.
func (n *Network) BeginWindow(workers int) {
	for len(n.pools) < workers {
		n.pools = append(n.pools, workerPool{})
	}
	n.windowed = true
}

// Claim implements vclock.Lanes.
func (n *Network) Claim(worker, lane int) {
	p := &n.pools[worker]
	p.claimed = append(p.claimed, int32(lane))
	n.nodes[lane].pool = p
}

// refill moves up to recordChunk records from the free list to a worker's
// empty pool.
func (n *Network) refill(pool *[]*delivery) {
	n.freeMu.Lock()
	cut := max(0, len(n.free)-recordChunk)
	*pool = append(*pool, n.free[cut:]...)
	n.free = n.free[:cut]
	n.freeMu.Unlock()
}

// EndEvent implements vclock.Lanes.
func (n *Network) EndEvent(lane int) {
	ns := &n.nodes[lane]
	ns.log = append(ns.log, op{})
}

// Commit implements vclock.Lanes: it replays the ops of the lane's next
// event. The workers have fired by now, so what the replay does — the
// detach record of an opDetach included — acts on shared state directly.
func (n *Network) Commit(lane int) {
	n.windowed = false
	ns := &n.nodes[lane]
	for {
		o := &ns.log[ns.next]
		ns.next++
		switch o.kind {
		case opSend:
			n.transmit(o.d)
		case opAfter:
			n.sim.ScheduleLane(lane, n.sim.Now()+o.after, o.fn)
		case opDetach:
			n.Detach(wire.NodeID(lane))
		case opTrace:
			n.trace.Append(ns.held[ns.nextHeld])
			ns.nextHeld++
		case opEnd:
			return
		}
	}
}

// EndWindow implements vclock.Lanes: the workers' records return to the
// free list and the lanes they fired are reset.
func (n *Network) EndWindow() {
	n.windowed = false
	for w := range n.pools {
		p := &n.pools[w]
		n.free = append(n.free, p.free...)
		p.free = p.free[:0]
		n.records += p.records
		p.records = 0
		for _, lane := range p.claimed {
			ns := &n.nodes[lane]
			n.traffic.Dropped += ns.dropped
			ns.dropped, ns.gone, ns.pool = 0, false, nil
			ns.log, ns.next = ns.log[:0], 0
			ns.held, ns.nextHeld = ns.held[:0], 0
		}
		p.claimed = p.claimed[:0]
	}
}

// laneHolder is the network's telemetry.Holder: while the workers fire a
// window it holds a node's trace records in the node's log, beside its
// sends, so that Commit appends them to the tracer at their event's time
// and in the serial order.
type laneHolder struct{ n *Network }

// Holding implements telemetry.Holder: records wait from BeginWindow to
// the window's first Commit.
func (h laneHolder) Holding() bool { return h.n.windowed }

// Hold implements telemetry.Holder.
func (h laneHolder) Hold(ev telemetry.Event) {
	ns := &h.n.nodes[int(ev.Node)]
	ns.held = append(ns.held, ev)
	ns.log = append(ns.log, op{kind: opTrace})
}
