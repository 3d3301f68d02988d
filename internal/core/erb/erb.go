// Package erb implements the paper's first primary contribution: the
// Enclaved Reliable Broadcast protocol (Algorithm 2).
//
// ERB reliably broadcasts a message from an initiator to all peers of a
// synchronous network with N >= 2t+1 nodes, of which up to t are byzantine
// OSes running genuine enclaves. Thanks to the blinded channel and the
// lockstep runtime, the adversary is confined to omitting messages, and
// the protocol achieves
//
//   - round complexity   min{f+2, t+2}, where f <= t is the number of
//     nodes actually misbehaving in this instance, and
//   - communication complexity O(N^2) — every node multicasts at most one
//     ECHO and answers with ACKs,
//
// improving on the O(N^3) of prior omission-model protocols through the
// active halt-on-divergence rule (property P4): a sender that does not
// collect at least t acknowledgments within the round churns itself out.
//
// An Engine can run many concurrent Broadcast instances (one per
// initiator), which is exactly how the ERNG protocols of Section 5 use it,
// and can be scoped to a subset of the network (the representative cluster
// of the optimized ERNG) via Config.Members.
package erb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Config parametrizes an Engine.
type Config struct {
	// Members is the set of peers participating in this broadcast scope.
	// Nil means the whole network [0, N). The local peer must be a
	// member to participate actively; non-members' messages are ignored.
	Members []wire.NodeID
	// T is the byzantine bound within Members. The protocol runs T+2
	// rounds and accepts on N_m - T distinct echoes (N_m = len(Members)).
	T int
	// AckThreshold is the minimum number of acknowledgments a multicast
	// must gather to avoid halting (Algorithm 2: halt when Nack < t).
	// Zero defaults to T. Negative disables ACK tracking entirely.
	AckThreshold int
	// StartRound is the lockstep round at which initiators multicast
	// INIT. Zero defaults to 1. The optimized ERNG embeds ERB starting
	// at round 2 of its own schedule.
	StartRound uint32
	// ExpectedInitiators lists the initiators whose broadcasts this
	// engine tracks; instances from other initiators are ignored. Nil
	// means "any member". Results are defined for expected initiators
	// (or any initiator heard from, when nil).
	ExpectedInitiators []wire.NodeID
}

// Result is the outcome of one broadcast instance at this node.
type Result struct {
	// Accepted is true when a value was accepted; false means bottom
	// (the initiator failed or stayed silent).
	Accepted bool
	// Value is the accepted message m (zero when !Accepted).
	Value wire.Value
	// Round is the lockstep round at which the decision was made.
	Round uint32
	// At is the virtual time of the decision.
	At time.Duration
}

// nodeSet is a dense bitset over NodeIDs with a running count — the
// Secho set of Algorithm 2. Node ids are small dense integers, so a few
// words replace the per-instance map and the per-message hashing the
// delivery path used to pay.
type nodeSet struct {
	words []uint64
	count int
}

// add records id and reports whether it was newly set.
func (s *nodeSet) add(id wire.NodeID) bool {
	w, bit := int(id)/64, uint(id)%64
	if w >= len(s.words) {
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	if s.words[w]&(1<<bit) != 0 {
		return false
	}
	s.words[w] |= 1 << bit
	s.count++
	return true
}

// instance is the per-initiator broadcast state of Algorithm 2.
type instance struct {
	initiator wire.NodeID
	value     wire.Value // m~: current candidate
	hasValue  bool
	echo      nodeSet // Secho
	queued    bool    // ECHO queued for next round start
	echoed    bool    // ECHO already multicast
	decided   bool
	result    Result
}

// Engine drives all broadcast instances of one protocol epoch at one peer.
// It implements runtime.Protocol.
//
// Membership, expected-initiator filtering and the per-initiator
// instance table are dense slices indexed by NodeID rather than maps:
// ids are dense small integers and every one of these structures is hit
// once or more per delivered message.
type Engine struct {
	peer       runtime.Host
	cfg        Config
	self       wire.NodeID
	selfMember bool
	member     []bool // dense Members set; nil = full roster (ids 0..nm-1)
	mcast      []wire.NodeID
	nm         int // number of members
	hasExpect  bool
	expect     []bool // dense ExpectedInitiators set (nil when exactly one is expected)

	// Single-expected-initiator fast path: the shape every multiplexed
	// broadcast builds (one engine per request, one initiator each), so
	// thousands of engines per epoch. The instance lives inline and the
	// dense expect/instances tables stay unallocated.
	expectOne   wire.NodeID // the initiator, when hasExpect && expect == nil
	instOne     instance    // its instance storage
	instOneLive bool        // instOne is tracked

	input     *wire.Value
	instances []*instance // indexed by initiator, nil until tracked
	pending   []*instance // instances with an ECHO queued for next round
	accepted  int         // instances decided with a value (not bottom)
	metrics   erbMetrics

	// slab and setSlab are the chunks instances and their Secho words
	// are carved from (see newInstance): two allocations per chunk
	// instead of two per initiator. setWords is the words one Secho needs
	// to hold every member id.
	slab     []instance
	setSlab  []uint64
	setWords int
	// txMsg is the scratch every ECHO is built in: Host.Multicast encodes
	// the message during the call and keeps no reference to it, so one
	// engine-owned message replaces a heap allocation per relay.
	txMsg wire.Message
}

// singleExpect reports the single-expected-initiator shape.
func (e *Engine) singleExpect() bool { return e.hasExpect && e.expect == nil }

// isMember reports whether id is in the broadcast scope. A nil member
// slice is the full roster: membership is a range check, with no dense
// set materialized per engine.
func (e *Engine) isMember(id wire.NodeID) bool {
	if e.member == nil {
		return int(id) < e.nm
	}
	return int(id) < len(e.member) && e.member[id]
}

// erbMetrics are the engine's metric handles; nil handles (no registry)
// are no-ops.
type erbMetrics struct {
	accepts     *telemetry.Counter
	bottoms     *telemetry.Counter
	acceptRound *telemetry.Histogram
}

// valueFP condenses a broadcast value into the 64-bit fingerprint trace
// events carry in Arg.
func valueFP(v wire.Value) uint64 {
	return binary.BigEndian.Uint64(v[:8])
}

var _ runtime.Protocol = (*Engine)(nil)

// NewEngine validates the configuration and builds an engine bound to a
// runtime host — a dedicated *runtime.Peer or a multiplexed
// *runtime.Instance; the engine is identical either way.
func NewEngine(peer runtime.Host, cfg Config) (*Engine, error) {
	if peer == nil {
		return nil, errors.New("erb: nil peer")
	}
	nm := len(cfg.Members)
	if cfg.Members == nil {
		// Full-roster scope, the default: kept implicit instead of
		// materializing the identity list. Membership becomes a range
		// check and multicasts pass nil destinations — the runtime's
		// all-peers fast path, which also keeps flush windows
		// frame-ackable. A multiplexed epoch builds thousands of engines,
		// so the two saved allocations (list + dense set) matter.
		nm = peer.N()
	}
	if nm < 2 {
		return nil, fmt.Errorf("erb: need at least 2 members, got %d", nm)
	}
	if cfg.T < 0 || 2*cfg.T+1 > nm {
		return nil, fmt.Errorf("erb: byzantine bound t=%d violates N_m >= 2t+1 for N_m=%d", cfg.T, nm)
	}
	if cfg.StartRound == 0 {
		cfg.StartRound = 1
	}
	if cfg.AckThreshold == 0 {
		cfg.AckThreshold = cfg.T
	}
	e := &Engine{
		peer: peer,
		cfg:  cfg,
		self: peer.ID(),
		nm:   nm,
	}
	size := nm // full roster: ids are 0..N-1
	if cfg.Members != nil {
		maxID := wire.NodeID(0)
		for _, id := range cfg.Members {
			if id > maxID {
				maxID = id
			}
		}
		size = int(maxID) + 1
		e.member = make([]bool, size)
		for _, id := range cfg.Members {
			e.member[id] = true
		}
		e.mcast = cfg.Members
	}
	e.setWords = (size + 63) / 64
	e.selfMember = e.isMember(e.self)
	if m := peer.Metrics(); m != nil {
		e.metrics = erbMetrics{
			accepts:     m.Counter("erb_accepts_total"),
			bottoms:     m.Counter("erb_bottoms_total"),
			acceptRound: m.Histogram("erb_accept_round", []float64{1, 2, 3, 4, 5, 6, 8}),
		}
	}
	if cfg.ExpectedInitiators != nil {
		e.hasExpect = true
		for _, id := range cfg.ExpectedInitiators {
			if !e.isMember(id) {
				return nil, fmt.Errorf("erb: expected initiator %d is not a member", id)
			}
		}
		if len(cfg.ExpectedInitiators) == 1 {
			// The multiplexed-broadcast shape: one engine per request, one
			// expected initiator each, thousands of engines per epoch. The
			// expect set, the instance table and the instance itself stay
			// inline — zero dense tables per engine.
			e.expectOne = cfg.ExpectedInitiators[0]
			return e, nil
		}
		e.expect = make([]bool, size)
		for _, id := range cfg.ExpectedInitiators {
			e.expect[id] = true
		}
	}
	e.instances = make([]*instance, size)
	return e, nil
}

// Rounds returns the number of lockstep rounds the engine needs from
// round 1 through its deadline: StartRound + T + 1.
func (e *Engine) Rounds() int {
	return int(e.cfg.StartRound) + e.cfg.T + 1
}

// SetInput makes this peer an initiator broadcasting v in this epoch.
// Must be called before the start round fires.
func (e *Engine) SetInput(v wire.Value) {
	e.input = &v
}

// Result returns this node's decision for the given initiator's broadcast.
// The boolean reports whether a decision exists (it always does after the
// engine finished, for expected initiators).
func (e *Engine) Result(initiator wire.NodeID) (Result, bool) {
	if e.singleExpect() {
		if initiator != e.expectOne || !e.instOneLive || !e.instOne.decided {
			return Result{}, false
		}
		return e.instOne.result, true
	}
	if int(initiator) >= len(e.instances) {
		return Result{}, false
	}
	inst := e.instances[initiator]
	if inst == nil || !inst.decided {
		return Result{}, false
	}
	return inst.result, true
}

// Results returns all decided instances keyed by initiator.
func (e *Engine) Results() map[wire.NodeID]Result {
	out := make(map[wire.NodeID]Result)
	if e.singleExpect() {
		if e.instOneLive && e.instOne.decided {
			out[e.expectOne] = e.instOne.result
		}
		return out
	}
	for id, inst := range e.instances {
		if inst != nil && inst.decided {
			out[wire.NodeID(id)] = inst.result
		}
	}
	return out
}

// DecidedAll reports whether every expected initiator's instance decided.
// With ExpectedInitiators nil it reports whether all known instances did.
func (e *Engine) DecidedAll() bool {
	if e.hasExpect {
		for _, id := range e.cfg.ExpectedInitiators {
			if _, ok := e.Result(id); !ok {
				return false
			}
		}
		return true
	}
	known := 0
	for _, inst := range e.instances {
		if inst == nil {
			continue
		}
		known++
		if !inst.decided {
			return false
		}
	}
	return known > 0
}

// deadline is the last round of the instance window.
func (e *Engine) deadline() uint32 {
	return e.cfg.StartRound + uint32(e.cfg.T) + 1
}

// acceptThreshold is |Secho| needed to accept: N_m - T.
func (e *Engine) acceptThreshold() int {
	return e.nm - e.cfg.T
}

// getInstance returns (creating if needed) the state for an initiator's
// broadcast, or nil if the initiator is not tracked.
//
// The initiator is deliberately NOT required to be in Members: enclave
// execution integrity (P1) already guarantees that only genuinely selected
// nodes initiate, and in the optimized ERNG the local view of the cluster
// may lack byzantine members whose CHOSEN announcement was selectively
// omitted. Requiring initiator membership would make honest nodes refuse
// to acknowledge relays of such instances, starving honest echoers below
// the ACK threshold and churning them out. Relays are still only accepted
// from members, and explicit ExpectedInitiators still filter.
func (e *Engine) getInstance(initiator wire.NodeID) *instance {
	if e.singleExpect() {
		if initiator != e.expectOne {
			return nil
		}
		if !e.instOneLive {
			e.instOneLive = true
			e.instOne.initiator = initiator
		}
		return &e.instOne
	}
	if e.hasExpect && (int(initiator) >= len(e.expect) || !e.expect[initiator]) {
		return nil
	}
	if int(initiator) >= len(e.instances) {
		grown := make([]*instance, int(initiator)+1)
		copy(grown, e.instances)
		e.instances = grown
	}
	inst := e.instances[initiator]
	if inst == nil {
		inst = e.newInstance(initiator)
		e.instances[initiator] = inst
	}
	return inst
}

// newInstance carves one instance from the engine's slab. With explicit
// expected initiators every one of them ends up tracked (finalize decides
// bottom for the silent ones), so the first chunk holds them all; without
// an expectation the engine cannot know how many initiators will show up,
// so chunks double from instanceChunkMin up to the member count. A full
// chunk is replaced, never grown: instances handed out stay where they
// are.
func (e *Engine) newInstance(initiator wire.NodeID) *instance {
	if len(e.slab) == cap(e.slab) {
		chunk := len(e.cfg.ExpectedInitiators)
		if !e.hasExpect {
			chunk = min(max(2*cap(e.slab), instanceChunkMin), e.nm)
		}
		e.slab = make([]instance, 0, chunk)
		e.setSlab = make([]uint64, chunk*e.setWords)
	}
	// Capacity-capped, so a Secho that outgrows its words (an initiator
	// id past the member ids) reallocates instead of running into its
	// neighbour's.
	words := e.setSlab[:e.setWords:e.setWords]
	e.setSlab = e.setSlab[e.setWords:]
	e.slab = append(e.slab, instance{initiator: initiator, echo: nodeSet{words: words}})
	return &e.slab[len(e.slab)-1]
}

// instanceChunkMin is the first slab chunk of an engine with no explicit
// expected initiators.
const instanceChunkMin = 4

// OnRound implements runtime.Protocol: flush queued ECHOs, then (at the
// start round) launch our own broadcast if we are an initiator.
func (e *Engine) OnRound(rnd uint32) {
	if !e.selfMember {
		return
	}
	// Queued ECHO multicasts fire at the beginning of the round after the
	// value was learned (the Wait(rnd) of Algorithm 2).
	pending := e.pending
	e.pending = nil
	for _, inst := range pending {
		if e.peer.Halted() {
			return
		}
		e.multicastEcho(inst, rnd)
	}
	if rnd == e.cfg.StartRound && e.input != nil {
		e.startBroadcast(rnd)
	}
	// Past the deadline nothing further can be accepted; decide bottom.
	if rnd > e.deadline() {
		e.finalize(rnd)
	}
}

// startBroadcast is the initiator path of Algorithm 2: set m~, add self to
// Secho, multicast INIT to all members.
func (e *Engine) startBroadcast(rnd uint32) {
	self := e.self
	inst := e.getInstance(self)
	if inst == nil || inst.hasValue {
		return
	}
	inst.value = *e.input
	inst.hasValue = true
	inst.echo.add(self)
	inst.echoed = true // the INIT plays the role of the initiator's ECHO
	msg := &wire.Message{
		Type:      wire.TypeInit,
		Sender:    self,
		Initiator: self,
		Instance:  e.peer.Instance(),
		Seq:       e.peer.SeqOf(self),
		Round:     rnd,
		HasValue:  true,
		Value:     inst.value,
	}
	e.peer.Trace(telemetry.KindInit, wire.NoNode, valueFP(inst.value))
	if err := e.peer.Multicast(e.mcast, msg, e.cfg.AckThreshold); err != nil {
		// Halted mid-multicast: nothing further to do.
		return
	}
	e.maybeAccept(inst, rnd)
}

// multicastEcho relays the learned value to all members.
func (e *Engine) multicastEcho(inst *instance, rnd uint32) {
	if inst.echoed || !inst.hasValue {
		return
	}
	inst.echoed = true
	e.peer.Trace(telemetry.KindEcho, inst.initiator, valueFP(inst.value))
	e.txMsg = wire.Message{
		Type:      wire.TypeEcho,
		Sender:    e.self,
		Initiator: inst.initiator,
		Instance:  e.peer.Instance(),
		Seq:       e.peer.SeqOf(inst.initiator),
		Round:     rnd,
		HasValue:  true,
		Value:     inst.value,
	}
	_ = e.peer.Multicast(e.mcast, &e.txMsg, e.cfg.AckThreshold) //lint:allow sealerr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
}

// OnMessage implements runtime.Protocol. The runtime already enforced
// authenticity (P2), program identity (P1) and the lockstep round check
// (P5); the engine enforces membership, instance and sequence freshness
// (P6) and runs the Echo/Decision phases of Algorithm 2.
func (e *Engine) OnMessage(msg *wire.Message) {
	if !e.selfMember {
		return
	}
	// INITs are self-identifying and genuine under P1 even when the
	// initiator is missing from the local member view (see getInstance);
	// ECHO relays only count from known members.
	if msg.Type == wire.TypeEcho && !e.isMember(msg.Sender) {
		return
	}
	if msg.Instance != e.peer.Instance() {
		return // stale epoch (replay), treated as omission
	}
	rnd := e.peer.Round()
	if rnd > e.deadline() {
		return
	}
	switch msg.Type {
	case wire.TypeInit:
		e.onInit(msg, rnd)
	case wire.TypeEcho:
		e.onEcho(msg, rnd)
	default:
		// Other message types belong to other protocols sharing the
		// peer (e.g. ERNG's CHOSEN/FINAL); not ours to handle.
	}
}

// onInit handles an INIT from the initiator.
func (e *Engine) onInit(msg *wire.Message, rnd uint32) {
	if msg.Sender != msg.Initiator || !msg.HasValue {
		return
	}
	if msg.Seq != e.peer.SeqOf(msg.Initiator) {
		return // replayed or stale (P6)
	}
	inst := e.getInstance(msg.Initiator)
	if inst == nil || inst.hasValue {
		return
	}
	if err := e.peer.SendAck(msg.Sender, msg); err != nil {
		return
	}
	inst.value = msg.Value
	inst.hasValue = true
	inst.echo.add(msg.Initiator)
	inst.echo.add(e.self)
	e.queueEcho(inst)
	e.maybeAccept(inst, rnd)
}

// onEcho handles an ECHO relay from any member.
func (e *Engine) onEcho(msg *wire.Message, rnd uint32) {
	if !msg.HasValue {
		return
	}
	if msg.Seq != e.peer.SeqOf(msg.Initiator) {
		return // replayed or stale (P6)
	}
	inst := e.getInstance(msg.Initiator)
	if inst == nil {
		return
	}
	if inst.hasValue && inst.value != msg.Value {
		// With genuine enclaves all relays of one (initiator, seq) carry
		// the same m; a mismatch can only be an in-flight corruption that
		// somehow survived, so it is treated as an omission.
		return
	}
	if err := e.peer.SendAck(msg.Sender, msg); err != nil {
		return
	}
	if !inst.hasValue {
		inst.value = msg.Value
		inst.hasValue = true
		inst.echo.add(e.self)
		e.queueEcho(inst)
	}
	inst.echo.add(msg.Sender)
	e.maybeAccept(inst, rnd)
}

// queueEcho schedules the ECHO multicast for the beginning of the next
// round (Wait(rnd) in Algorithm 2).
func (e *Engine) queueEcho(inst *instance) {
	if inst.queued || inst.echoed {
		return
	}
	inst.queued = true
	e.pending = append(e.pending, inst)
}

// maybeAccept runs the decision rule: accept m once |Secho| >= N_m - t.
func (e *Engine) maybeAccept(inst *instance, rnd uint32) {
	if inst.decided || !inst.hasValue {
		return
	}
	if inst.echo.count >= e.acceptThreshold() {
		inst.decided = true
		e.accepted++
		inst.result = Result{
			Accepted: true,
			Value:    inst.value,
			Round:    rnd,
			At:       e.peer.Now(),
		}
		e.peer.Trace(telemetry.KindAccept, inst.initiator, valueFP(inst.value))
		e.metrics.accepts.Inc()
		e.metrics.acceptRound.Observe(float64(rnd))
	}
}

// AcceptedCount returns the number of instances that have accepted a
// value so far (bottom decisions excluded). It lets compositions like the
// ERNG detect all-accepted early stopping in O(1).
func (e *Engine) AcceptedCount() int { return e.accepted }

// OnFinish implements runtime.Protocol: decide bottom for anything still
// open.
func (e *Engine) OnFinish() {
	e.finalize(e.deadline() + 1)
}

// finalize decides bottom for all undecided tracked instances, creating
// bottom decisions for expected initiators never heard from. Peers outside
// the member scope do not participate and record nothing.
func (e *Engine) finalize(rnd uint32) {
	if !e.selfMember {
		return
	}
	// Bottom decisions must run in a deterministic order — they emit trace
	// events, and the exported stream is required to be byte-identical
	// across runs of the same seed. With explicit expected initiators the
	// config slice is that order (and instances only exist for expected
	// initiators); otherwise the dense instance table walks known
	// initiators in ascending id order.
	if e.hasExpect {
		for _, id := range e.cfg.ExpectedInitiators {
			e.decideBottom(e.getInstance(id), rnd)
		}
		return
	}
	for _, inst := range e.instances {
		if inst != nil {
			e.decideBottom(inst, rnd)
		}
	}
}

// decideBottom closes one undecided instance with a bottom result.
func (e *Engine) decideBottom(inst *instance, rnd uint32) {
	if inst == nil || inst.decided {
		return
	}
	inst.decided = true
	inst.result = Result{
		Accepted: false,
		Round:    rnd,
		At:       e.peer.Now(),
	}
	e.peer.Trace(telemetry.KindBottom, inst.initiator, 0)
	e.metrics.bottoms.Inc()
}
