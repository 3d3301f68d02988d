// Package simnet implements the simulated synchronous network the
// experiments run on: the Go analogue of the paper's DeterLab testbed
// (40 machines sharing one 128 MB/s link, up to 2^10 peers).
//
// The network is driven by the discrete-event engine in internal/vclock.
// Every message experiences
//
//   - a propagation latency, uniform in [BaseLatency, Delta] (the TCP/IP
//     substrate's bounded delivery delay, assumption S3), plus
//   - serialization on a single shared link of configurable bandwidth,
//     modelled as a FIFO queue, which reproduces the bandwidth-bottleneck
//     knee the paper observes in Figures 2a/2b.
//
// The network also keeps the traffic accounting (message and byte counts,
// per node and total) that the communication-complexity experiments of
// Figure 3 report, and supports detaching nodes, which is how
// halt-on-divergence (P4) churn is reflected at the transport level.
//
// Every node is a lane of the simulator (vclock.Lanes): deliveries to it
// and timers of its port are its lane's events. Once EnableLanes promised
// BaseLatency as the lookahead, the simulator may run one window's lanes
// on several goroutines, and the network holds back what the nodes do to
// shared state until the window commits (lanes.go). The numbers above —
// latencies, traffic, drops, the order of everything — do not depend on
// whether it does.
package simnet

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
)

// Handler receives a delivered payload on the destination node. The
// payload buffer belongs to the network and is recycled once the handler
// returns; a handler that keeps the bytes must copy them.
type Handler func(src wire.NodeID, payload []byte)

// Config describes the simulated network.
type Config struct {
	// N is the number of nodes.
	N int
	// Delta is the one-way delivery bound (assumption S3): propagation
	// latency never exceeds it. A round lasts 2*Delta.
	Delta time.Duration
	// BaseLatency is the minimum propagation latency. Defaults to
	// Delta/10.
	BaseLatency time.Duration
	// Bandwidth is the shared-link bandwidth in bytes per second.
	// Zero means unlimited (no serialization delay).
	Bandwidth float64
	// Seed seeds the latency jitter. Runs with equal seeds are
	// bit-for-bit reproducible.
	Seed int64
}

// DefaultBandwidth matches the paper's testbed: a shared 128 MB/s link.
const DefaultBandwidth = 128 << 20

// Traffic aggregates transport-level accounting.
type Traffic struct {
	// Messages is the number of payloads handed to the network.
	Messages uint64
	// Bytes is the total payload bytes handed to the network.
	Bytes uint64
	// Dropped counts messages discarded because the source or
	// destination had been detached (churned out by P4).
	Dropped uint64
	// Late counts deliveries whose total delay (queueing + propagation)
	// exceeded Delta — a sign the configured Delta is too small for the
	// offered load, exactly the condition that forced the authors to
	// raise Delta for the ERNG runs.
	Late uint64
}

// Network is the simulated network. Its methods belong to the goroutine
// that runs the simulator: call them between runs or from untagged events.
// What a node does from its own lane's events — a delivery handler, a
// port timer — goes through its Port: Send, After, Detach and Now are the
// calls a lane event may make, and only on its own node's port.
type Network struct {
	sim *vclock.Sim
	cfg Config
	rng *rand.Rand
	// nodes packs each node's delivery state (handler, detach flag,
	// detach epoch) and its lane's window state into one slot, so the
	// per-delivery destination checks are one indexed load.
	nodes    []nodeSlot
	linkFree time.Duration
	traffic  Traffic
	perNode  []Traffic
	trace    *telemetry.Tracer
	ctr      *netCounters
	// free is the delivery-record free list. A record carries its payload
	// buffer and a prebound fire closure, so a steady-state send allocates
	// nothing: the payload is copied into the recycled buffer and the
	// recycled closure is scheduled. Records return to the list after
	// their handler ran (a handler cannot outlive the delivery event).
	// While a window runs on workers each takes a chunk at a time under
	// freeMu (refill) and EndWindow gathers what they hold.
	free   []*delivery
	freeMu sync.Mutex
	// windowed is set while a window runs on workers, written only while
	// they park; see lanes.go for it and the worker pools.
	windowed bool
	pools    []workerPool
}

// nodeSlot is one node's delivery state. epoch counts the node's
// detachments: deliveries capture the destination epoch at send time
// and drop if it changed — frames in flight when a machine crashes are
// lost even if it reboots before their arrival time.
//
// handler, epoch and detached change only on the simulator's goroutine,
// never while a window runs on workers. The rest is the node's lane
// state, which during such a window belongs to the worker that claimed
// the lane; the padding keeps neighbours on different workers off each
// other's cache lines.
type nodeSlot struct {
	handler  Handler
	epoch    int
	detached bool

	// gone shadows detached for the node's own Detach inside a window,
	// so the lane's later deliveries drop as they would have serially.
	gone    bool
	dropped uint64
	log     []op
	next    int          // first uncommitted op
	pool    *[]*delivery // the firing worker's records; nil outside a window: free
	_       [56]byte     // to 128 bytes
}

// delivery is one in-flight frame: destination epoch captured at send
// time, the payload copy, and the prebound callback handed to the
// simulator.
type delivery struct {
	n        *Network
	src, dst wire.NodeID
	ep       int
	payload  []byte
	fire     func()
}

// run delivers (or drops) the frame, then recycles the record. It is an
// event of the destination's lane.
func (d *delivery) run() {
	n := d.n
	// Only the destination is re-checked at delivery time: envelopes
	// already in flight when their sender halts still arrive, as they
	// would on a real network. An epoch change means the destination
	// crashed after the send — the frame is lost even if it rebooted.
	ns := &n.nodes[int(d.dst)]
	if ns.detached || ns.gone || ns.epoch != d.ep {
		if n.windowed {
			ns.dropped++
		} else {
			n.drop()
		}
	} else if ns.handler != nil {
		ns.handler(d.src, d.payload)
	}
	pool := n.recordPool(ns)
	*pool = append(*pool, d)
}

// drop counts one message discarded at a detached node.
func (n *Network) drop() {
	n.traffic.Dropped++
	if n.ctr != nil {
		n.ctr.dropped.Inc()
	}
}

// recordPool returns the record list a node's lane takes from and
// recycles into: the free list, or the pool of the worker firing the lane.
func (n *Network) recordPool(ns *nodeSlot) *[]*delivery {
	if ns.pool != nil {
		return ns.pool
	}
	return &n.free
}

// getDelivery pops a recycled record off the list — a worker's, refilled
// from the free list when empty — or builds a fresh one.
func (n *Network) getDelivery(pool *[]*delivery) *delivery {
	if len(*pool) == 0 && n.windowed {
		n.refill(pool)
	}
	if k := len(*pool); k > 0 {
		d := (*pool)[k-1]
		*pool = (*pool)[:k-1]
		return d
	}
	d := &delivery{n: n}
	d.fire = d.run
	return d
}

// netCounters are the transport-level metric handles; nil when the network
// runs without a metrics registry.
type netCounters struct {
	messages      *telemetry.Counter
	bytes         *telemetry.Counter
	dropped       *telemetry.Counter
	late          *telemetry.Counter
	envelopeBytes *telemetry.Histogram
}

// SetTelemetry attaches a tracer (detach/reattach churn events) and a
// metrics registry (traffic counters, envelope-size histogram) to the
// network. Either may be nil.
func (n *Network) SetTelemetry(tr *telemetry.Tracer, m *telemetry.Metrics) {
	n.trace = tr
	if m == nil {
		n.ctr = nil
		return
	}
	n.ctr = &netCounters{
		messages:      m.Counter("net_messages_total"),
		bytes:         m.Counter("net_bytes_total"),
		dropped:       m.Counter("net_dropped_total"),
		late:          m.Counter("net_late_total"),
		envelopeBytes: m.Histogram("net_envelope_bytes", []float64{64, 128, 256, 512, 1024, 4096, 16384}),
	}
}

// New creates a network of cfg.N disconnected ports on the given simulator.
func New(sim *vclock.Sim, cfg Config) (*Network, error) {
	if sim == nil {
		return nil, errors.New("simnet: nil simulator")
	}
	if cfg.N <= 0 {
		return nil, fmt.Errorf("simnet: invalid node count %d", cfg.N)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("simnet: invalid delta %v", cfg.Delta)
	}
	if cfg.BaseLatency <= 0 {
		cfg.BaseLatency = cfg.Delta / 10
	}
	if cfg.BaseLatency > cfg.Delta {
		return nil, fmt.Errorf("simnet: base latency %v exceeds delta %v", cfg.BaseLatency, cfg.Delta)
	}
	// Every event this network schedules — deliveries (≤ Delta ahead) and
	// the runtimes' lockstep ticks (2·Delta ahead) — sits within a few
	// Delta of now, which is exactly the locality the simulator's calendar
	// tier wants to know about.
	sim.SetHorizon(cfg.Delta)
	return &Network{
		sim:     sim,
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		nodes:   make([]nodeSlot, cfg.N),
		perNode: make([]Traffic, cfg.N),
	}, nil
}

// Sim returns the simulator driving this network.
func (n *Network) Sim() *vclock.Sim { return n.sim }

// Config returns the network configuration.
func (n *Network) Config() Config { return n.cfg }

// Now returns the current virtual time.
func (n *Network) Now() time.Duration { return n.sim.Now() }

// After schedules fn after the given virtual delay as an untagged event:
// it fires alone, on the simulator's goroutine. The event is
// fire-and-forget (Schedule), so no cancellation handle is allocated.
func (n *Network) After(d time.Duration, fn func()) {
	n.sim.ScheduleAfter(d, fn)
}

// SetHandler registers the delivery callback for a node.
func (n *Network) SetHandler(id wire.NodeID, h Handler) {
	n.nodes[id].handler = h
}

// AddNode grows the network by one node and returns its id (dynamic
// membership, Appendix G).
func (n *Network) AddNode() wire.NodeID {
	id := wire.NodeID(len(n.nodes))
	n.nodes = append(n.nodes, nodeSlot{})
	n.perNode = append(n.perNode, Traffic{})
	n.cfg.N++
	return id
}

// Detach removes a node from the network: subsequent sends from or to it
// are dropped, and frames already in flight toward it are lost (its
// epoch advances, see Send). This is the transport-level effect of
// halt-on-divergence and of a machine crash. Out-of-range ids and
// already-detached nodes are no-ops.
func (n *Network) Detach(id wire.NodeID) {
	if int(id) >= len(n.nodes) || n.nodes[int(id)].detached {
		return
	}
	n.nodes[int(id)].detached = true
	n.nodes[int(id)].epoch++
	if n.trace != nil {
		n.trace.Record(id, 0, telemetry.KindDetach, wire.NoNode, 0, "")
	}
}

// Detached reports whether a node has been detached.
func (n *Network) Detached(id wire.NodeID) bool {
	return int(id) < len(n.nodes) && n.nodes[int(id)].detached
}

// Reattach restores a detached node — the transport-level half of a
// crash–restart (deploy.Restart): subsequent sends from and to the node
// flow again. Messages in flight at detach time stay dropped even if the
// reboot beats their arrival, exactly like frames lost while a real
// machine was down. Out-of-range ids are no-ops.
func (n *Network) Reattach(id wire.NodeID) {
	if int(id) >= len(n.nodes) {
		return
	}
	n.nodes[int(id)].detached = false
	if n.trace != nil {
		n.trace.Record(id, 0, telemetry.KindReattach, wire.NoNode, 0, "")
	}
}

// Send transmits payload from src to dst. The payload is copied into a
// pooled delivery record before Send returns, so the caller may reuse
// its buffer immediately — this is what lets the runtime seal every
// envelope into one per-peer scratch buffer. Delivery is scheduled on
// the simulator after queueing and propagation delay — at once, or, from
// a window running on workers, when src's event commits.
func (n *Network) Send(src, dst wire.NodeID, payload []byte) {
	if int(src) >= len(n.nodes) || int(dst) >= len(n.nodes) || src == dst {
		return
	}
	ns := &n.nodes[int(src)]
	d := n.getDelivery(n.recordPool(ns))
	d.src, d.dst = src, dst
	d.payload = append(d.payload[:0], payload...)
	if n.windowed {
		ns.log = append(ns.log, op{kind: opSend, d: d})
		return
	}
	n.transmit(d)
}

// transmit puts a filled record on the wire: detach check, traffic
// accounting, link queueing, the latency draw and the delivery event. It
// is everything about a send that reads or writes shared state, so it
// runs in the serial order of the sends.
func (n *Network) transmit(d *delivery) {
	src, dst := d.src, d.dst
	if n.nodes[int(src)].detached || n.nodes[int(dst)].detached {
		n.drop()
		n.free = append(n.free, d)
		return
	}
	size := len(d.payload)
	n.traffic.Messages++
	n.traffic.Bytes += uint64(size)
	n.perNode[int(src)].Messages++
	n.perNode[int(src)].Bytes += uint64(size)
	if n.ctr != nil {
		n.ctr.messages.Inc()
		n.ctr.bytes.Add(uint64(size))
		n.ctr.envelopeBytes.Observe(float64(size))
	}

	now := n.sim.Now()
	start := now
	if n.cfg.Bandwidth > 0 {
		if n.linkFree > start {
			start = n.linkFree
		}
		tx := time.Duration(float64(size) / n.cfg.Bandwidth * float64(time.Second))
		n.linkFree = start + tx
		start = n.linkFree
	}
	// Latency is strictly below Delta so that a message sent at a round
	// boundary is always delivered before the next boundary's lockstep
	// tick, never exactly on it.
	latency := n.cfg.BaseLatency
	if spread := n.cfg.Delta - n.cfg.BaseLatency; spread > 0 {
		latency += time.Duration(n.rng.Int63n(int64(spread)))
	}
	arrival := start + latency
	if arrival-now > n.cfg.Delta {
		n.traffic.Late++
		if n.ctr != nil {
			n.ctr.late.Inc()
		}
	}
	d.ep = n.nodes[int(dst)].epoch
	n.sim.ScheduleLane(int(dst), arrival, d.fire)
}

// Traffic returns a snapshot of the aggregate traffic counters.
func (n *Network) Traffic() Traffic { return n.traffic }

// NodeTraffic returns a snapshot of one node's outbound traffic counters.
func (n *Network) NodeTraffic(id wire.NodeID) Traffic { return n.perNode[int(id)] }

// ResetTraffic zeroes all traffic counters. Experiments call it between
// the setup phase and the measured protocol instance so Figure 3 reports
// protocol traffic only, like the paper.
func (n *Network) ResetTraffic() {
	n.traffic = Traffic{}
	for i := range n.perNode {
		n.perNode[i] = Traffic{}
	}
}

// Port binds a node id to the network behind the narrow Transport-style
// interface protocol runtimes use.
type Port struct {
	net *Network
	id  wire.NodeID
}

// Port returns the port for a node.
func (n *Network) Port(id wire.NodeID) *Port {
	return &Port{net: n, id: id}
}

// ID returns the node id this port belongs to.
func (p *Port) ID() wire.NodeID { return p.id }

// Send transmits payload to dst.
func (p *Port) Send(dst wire.NodeID, payload []byte) {
	p.net.Send(p.id, dst, payload)
}

// SetHandler registers the delivery callback. The parameter uses the raw
// function type so *Port satisfies transport interfaces declared in other
// packages.
func (p *Port) SetHandler(h func(src wire.NodeID, payload []byte)) {
	p.net.SetHandler(p.id, h)
}

// Detach removes this node from the network.
func (p *Port) Detach() {
	n := p.net
	if !n.windowed {
		n.Detach(p.id)
		return
	}
	if ns := &n.nodes[int(p.id)]; !ns.detached && !ns.gone {
		ns.gone = true
		ns.log = append(ns.log, op{kind: opDetach})
	}
}

// After schedules fn after the given virtual delay as an event of this
// node's lane. Once EnableLanes promised a lookahead, the delay must not
// be shorter than it.
func (p *Port) After(d time.Duration, fn func()) {
	n := p.net
	if n.windowed {
		ns := &n.nodes[int(p.id)]
		ns.log = append(ns.log, op{kind: opAfter, after: d, fn: fn})
		return
	}
	n.sim.ScheduleLane(int(p.id), n.sim.Now()+d, fn)
}

// Now returns the virtual time as this node sees it: the time of its
// lane's firing event.
func (p *Port) Now() time.Duration {
	return p.net.sim.LaneNow(int(p.id))
}
