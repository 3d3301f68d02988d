package telemetry

import (
	"sync"
	"time"

	"sgxp2p/internal/wire"
)

// Options configures a Tracer.
type Options struct {
	// Clock supplies logical timestamps. Nil is valid — events are stamped
	// 0 until SetClock binds one (deploy.New binds the simulator's clock so
	// callers can construct the tracer before the deployment exists).
	Clock func() time.Duration
	// Spans turns on causal-span hop events (KindSeal/KindOpen/
	// KindHandled): the runtime checks SpansEnabled once per peer and
	// records the seal→transit→open→deliver→handle decomposition keyed by
	// the sealed frame's tag. Off by default — span hops roughly double a
	// trace's event volume.
	Spans bool
}

// Tracer records the round-structured event stream of one run. All methods
// are safe on a nil receiver (no-ops) and safe for concurrent use: the TCP
// deployment records from its event-loop goroutines, and a simulation
// whose nodes fire side by side hands their records to its Holder, which
// appends them in the order the events would have fired one by one.
type Tracer struct {
	mu     sync.Mutex
	clock  func() time.Duration
	spans  bool
	holder Holder
	events []Event
	base   uint64 // stream position of events[0]: count of released events
	hash   uint64
}

// A Holder keeps back the records made while the order of the stream is
// not known yet — internal/simnet, while a window of lane events fires on
// several goroutines — and appends them later, in order, with Append.
// Holding changes only while no record is being made.
type Holder interface {
	// Holding reports whether records are held now. While they are, the
	// tracer reads no clock: what records then is one lane event, which
	// takes no time, so a span begun and finished in it lasts 0 and the
	// holder's Append stamps the event's time.
	Holding() bool
	// Hold takes one record made while Holding. ev.Node is the node whose
	// event made it.
	Hold(ev Event)
}

// SetHolder installs the holder records are offered to (nil: none). Call
// it before anything records.
func (t *Tracer) SetHolder(h Holder) {
	if t != nil {
		t.holder = h
	}
}

// New builds a tracer.
func New(opts Options) *Tracer {
	return &Tracer{clock: opts.Clock, spans: opts.Spans}
}

// SpansEnabled reports whether the tracer wants causal-span hop events.
// Instrumented packages cache this once (per peer) so the off-path cost of
// spans is a single bool test.
func (t *Tracer) SpansEnabled() bool {
	return t != nil && t.spans
}

// SetClock binds the logical clock used to stamp subsequent events.
func (t *Tracer) SetClock(clock func() time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock = clock
	t.mu.Unlock()
}

// Record appends one event: node acted in round, kind says what happened,
// peer is the counterparty (wire.NoNode when none), arg and note carry
// kind-specific detail. The stream is the tracer's only store: LastRound
// and the Flight views are read back out of it.
func (t *Tracer) Record(node wire.NodeID, round uint32, kind Kind, peer wire.NodeID, arg uint64, note string) {
	t.RecordInst(node, round, 0, kind, peer, arg, note)
}

// RecordInst is Record with an instance attribution: the protocol
// instance the event belongs to (0 = instance-less). The multiplexed
// runtime records every per-message event through this entry point so a
// trace of a thousand concurrent instances can be filtered back apart.
func (t *Tracer) RecordInst(node wire.NodeID, round uint32, instance uint32, kind Kind, peer wire.NodeID, arg uint64, note string) {
	if t == nil {
		return
	}
	t.record(Event{Node: node, Round: round, Kind: kind, Peer: peer, Arg: arg, Note: note, Instance: instance})
}

// RecordSpan is RecordInst with a causal-span attribution: span is the
// sealed frame's channel.FrameTag tying this hop to the same envelope's
// hops in other processes' traces.
func (t *Tracer) RecordSpan(node wire.NodeID, round uint32, instance uint32, kind Kind, peer wire.NodeID, arg uint64, span uint64) {
	if t == nil {
		return
	}
	t.record(Event{Node: node, Round: round, Kind: kind, Peer: peer, Arg: arg, Instance: instance, Span: span})
}

// record hands the event to the holder while it holds, and appends it
// otherwise.
func (t *Tracer) record(ev Event) {
	if t.holding() {
		t.holder.Hold(ev)
		return
	}
	t.Append(ev)
}

// holding reports whether the holder holds records now.
func (t *Tracer) holding() bool {
	return t.holder != nil && t.holder.Holding()
}

// Append stamps the clock and stream sequence on ev, then appends it to
// the stream and folds it into the hash. It is how every record joins the
// stream: directly, or through the holder that held it.
func (t *Tracer) Append(ev Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.clock != nil {
		ev.At = t.clock()
	}
	ev.Seq = t.base + uint64(len(t.events)) + 1
	t.events = append(t.events, ev)
	t.hash = foldEvent(t.hash, ev)
	t.mu.Unlock()
}

// now reads the tracer's logical clock (0 when no clock is bound). Span
// instrumentation uses it to measure hop durations with the same clock
// that stamps the events.
func (t *Tracer) now() time.Duration {
	t.mu.Lock()
	clock := t.clock
	t.mu.Unlock()
	if clock == nil {
		return 0
	}
	return clock()
}

// Span is an in-flight causal hop started by BeginSpan. The zero Span is
// a no-op, so span timing sites stay allocation-free and unconditional.
type Span struct {
	t     *Tracer
	start time.Duration
	held  bool // begun while the holder held: the hop takes no time
}

// BeginSpan starts timing one hop. It returns the zero (no-op) Span when
// the tracer is nil or spans are disabled; the caller MUST finish the
// span with Finish — a dropped Span loses the hop (the telemetry lint
// analyzer flags discarded BeginSpan results).
func (t *Tracer) BeginSpan() Span {
	if t == nil || !t.spans {
		return Span{}
	}
	if t.holding() {
		return Span{t: t, held: true}
	}
	return Span{t: t, start: t.now()}
}

// Finish records the hop: kind-specific identity as in RecordSpan, with
// Arg = the elapsed logical time since BeginSpan (nanoseconds).
func (s Span) Finish(node wire.NodeID, round uint32, instance uint32, kind Kind, peer wire.NodeID, span uint64) {
	if s.t == nil {
		return
	}
	var elapsed time.Duration
	if !s.held {
		elapsed = max(s.t.now()-s.start, 0)
	}
	s.t.record(Event{Node: node, Round: round, Kind: kind, Peer: peer, Arg: uint64(elapsed), Instance: instance, Span: span})
}

// Events returns a snapshot of the retained event stream in record order
// — the full stream unless the owner called Release, in which case only
// the unreleased suffix remains.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	t.mu.Unlock()
	return out
}

// Since returns a snapshot of the events recorded after the first cursor
// ones, in record order. A streaming exporter polls it with a cursor it
// advances by the returned length: each event comes out exactly once, and
// after a reconnect the caller may rewind the cursor and re-send — the
// receiver deduplicates on (stream, Seq) via MergeEvents.
func (t *Tracer) Since(cursor uint64) []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if cursor < t.base {
		cursor = t.base // the rewound prefix was released; resume at the edge
	}
	if cursor >= t.base+uint64(len(t.events)) {
		return nil
	}
	out := make([]Event, t.base+uint64(len(t.events))-cursor)
	copy(out, t.events[cursor-t.base:])
	return out
}

// Release drops the first upto events from the retained stream — the
// memory bound for a live node: once the exporter has shipped a prefix
// (its Since cursor) to every sink, the tracer need not hold it. Sequence
// numbers, the event count and the hash all keep counting across released
// prefixes; Events() and the views read out of the retained stream
// (LastRound, Flight, exports) see only the unreleased suffix.
func (t *Tracer) Release(upto uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if upto <= t.base {
		return
	}
	if max := t.base + uint64(len(t.events)); upto > max {
		upto = max
	}
	n := upto - t.base
	kept := copy(t.events, t.events[n:])
	t.events = t.events[:kept]
	t.base = upto
}

// EventCount returns the number of recorded events, including any a
// Release dropped from retention.
func (t *Tracer) EventCount() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	n := t.base + uint64(len(t.events))
	t.mu.Unlock()
	return n
}

// Hash returns an FNV-1a fingerprint over the event stream: two traces
// with equal hashes recorded the same events in the same order.
func (t *Tracer) Hash() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	h := t.hash
	t.mu.Unlock()
	return h
}

// LastRound returns the latest lockstep round node ticked in the retained
// stream (0 when the node never ticked or the tracer is nil).
func (t *Tracer) LastRound(node wire.NodeID) uint32 {
	if t == nil || node == wire.NoNode {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for i := len(t.events) - 1; i >= 0; i-- {
		if ev := &t.events[i]; ev.Node == node && ev.Kind == KindRound {
			return ev.Round
		}
	}
	return 0
}

// Flight returns every retained event node recorded, oldest first — the
// node's own timeline, which an invariant violation renders the tail of.
func (t *Tracer) Flight(node wire.NodeID) []Event {
	if t == nil || node == wire.NoNode {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Event
	for _, ev := range t.events {
		if ev.Node == node {
			out = append(out, ev)
		}
	}
	return out
}

// FilterInstance returns the events attributed to one instance, in order.
func FilterInstance(events []Event, instance uint32) []Event {
	var out []Event
	for _, ev := range events {
		if ev.Instance == instance {
			out = append(out, ev)
		}
	}
	return out
}

// foldEvent mixes one event into an FNV-1a accumulator.
func foldEvent(h uint64, ev Event) uint64 {
	if h == 0 {
		h = 14695981039346656037 // FNV-1a offset basis
	}
	h = foldUint64(h, uint64(ev.At))
	h = foldUint64(h, uint64(ev.Node))
	h = foldUint64(h, uint64(ev.Round))
	h = foldUint64(h, uint64(ev.Instance))
	h = foldUint64(h, uint64(ev.Kind))
	h = foldUint64(h, uint64(ev.Peer))
	h = foldUint64(h, ev.Arg)
	h = foldUint64(h, ev.Span)
	// Seq is deliberately not folded: it is record-order metadata, fully
	// determined by the event's position, and rewinding a stream cursor
	// must not be able to perturb the semantic fingerprint.
	for i := 0; i < len(ev.Note); i++ {
		h = (h ^ uint64(ev.Note[i])) * 1099511628211
	}
	return h
}

func foldUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * 1099511628211 // FNV-1a prime
		v >>= 8
	}
	return h
}
