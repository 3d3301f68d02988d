// Package runtime implements the peer runtime shared by the enclaved
// protocols: the setup phase of Section 4.1 (mutual remote attestation
// and initial sequence-number exchange up front, Diffie-Hellman link
// establishment at each pair's first frame), lockstep round scheduling
// (property P5, rounds of 2*Delta), the authenticated multicast with ACK
// counting that realizes halt-on-divergence (property P4), and the
// per-peer sequence tables that realize message freshness (property P6).
//
// Protocols (internal/core/erb, internal/core/erng) are state machines
// driven by two callbacks: OnRound at the start of every round and
// OnMessage for every message that survived the channel's authentication
// and the runtime's lockstep round check. Everything a protocol sends
// travels through Peer.Multicast / Peer.Send, which seal per-link
// envelopes and hand them to the Transport — where a byzantine OS (see
// internal/adversary) may interfere, but only by omitting, holding or
// replaying envelopes.
package runtime

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"time"

	"sgxp2p/internal/channel"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Transport is the narrow network interface the runtime needs. It is
// satisfied by *simnet.Port (simulation) and *tcpnet.Port (live TCP).
type Transport interface {
	// Send transmits a sealed envelope to dst. The slice is only valid
	// for the duration of the call: the runtime seals every envelope
	// into one reused per-peer buffer, so a transport (or wrapper) that
	// queues or retains the payload must copy it. simnet copies into
	// pooled delivery records, tcpnet into its frame buffers, and the
	// adversary wrapper copies envelopes it holds or replays.
	Send(dst wire.NodeID, payload []byte)
	// SetHandler registers the delivery callback.
	SetHandler(h func(src wire.NodeID, payload []byte))
	// Detach removes this node from the network (halt-on-divergence).
	Detach()
	// After schedules fn after a delay on the node's event loop.
	After(d time.Duration, fn func())
	// Now returns the transport's current time.
	Now() time.Duration
}

// Protocol is the state-machine interface protocols implement.
type Protocol interface {
	// OnRound fires at the start of every round, 1-based.
	OnRound(rnd uint32)
	// OnMessage fires for every authenticated message whose stamped
	// round matches the current round. ACKs are consumed by the runtime
	// and never reach the protocol. The message is borrowed: it is
	// decoded into a per-peer scratch that the next delivery overwrites,
	// so it is valid only until OnMessage returns — a protocol that
	// keeps any of it must copy the fields it needs (or msg.Clone()).
	// Every shipped protocol already extracts plain values; the borrow
	// is what lets a broadcast round run without a single message
	// allocation.
	OnMessage(msg *wire.Message)
	// OnFinish fires once, at the end of the final round.
	OnFinish()
}

// Roster describes the network membership every peer knows (assumptions
// S1/S5): the attestation quotes of all peers indexed by NodeID, the
// attestation service's verification key, and the expected program
// measurement.
type Roster struct {
	Quotes      []enclave.Quote
	ServiceKey  xcrypto.VerifyKey
	Measurement xcrypto.Measurement
	// PreVerified marks a roster whose quotes were already verified by
	// the deployment builder, letting NewPeer skip the per-peer
	// re-verification (which is O(N^2) signature checks across a
	// simulated deployment sharing one process). Live deployments leave
	// it false so every node verifies for itself.
	PreVerified bool
}

// Config carries the protocol-independent parameters of a deployment.
type Config struct {
	// N is the network size; T the byzantine bound (N >= 2T+1 for ERB).
	N, T int
	// Delta is the one-way delivery bound; a round lasts 2*Delta (S3).
	Delta time.Duration
	// Sealer builds this peer's sealer. Nil defaults to the real
	// AES+HMAC sealer.
	Sealer channel.Sealer
	// Trace, when non-nil, receives the peer's round-structured event
	// stream (round ticks, deliveries, ACK traffic, halts). Nil disables
	// tracing at the cost of one pointer check per event site.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, is the registry the peer's counters (and its
	// links' channel counters) register into. Nil disables metrics.
	Metrics *telemetry.Metrics
	// DisableBatching turns off the round-scoped outbox: every message is
	// sealed and sent individually, byte-identical to the pre-coalescing
	// wire behaviour. The default (batching on) coalesces all messages a
	// protocol callback emits to one destination into a single sealed
	// batch frame, flushed when the callback returns — same messages,
	// same virtual send instant, one seal + one transport send per link.
	DisableBatching bool
}

// Errors returned by peer construction and messaging.
var (
	// ErrHalted is returned by operations on a peer that has churned
	// itself out of the network.
	ErrHalted = errors.New("runtime: peer halted")
	// ErrUnknownPeer indicates a destination outside the roster.
	ErrUnknownPeer = errors.New("runtime: unknown peer")
	// ErrNilMessage indicates an attempt to acknowledge or digest a nil
	// message.
	ErrNilMessage = errors.New("runtime: nil message")
)

// Stats counts runtime-level events, used by tests and experiments.
type Stats struct {
	// Delivered counts messages passed to the protocol.
	Delivered uint64
	// AuthFailures counts envelopes rejected by the channel (forgeries,
	// corruption, wrong program) — treated as omissions per Theorem A.2.
	AuthFailures uint64
	// RoundMismatches counts authenticated messages dropped by the
	// lockstep check (delay/replay attacks surfacing as stale rounds).
	RoundMismatches uint64
	// EarlyBuffered counts authenticated messages that arrived stamped
	// one round ahead of the receiver's clock and were buffered until
	// the round ticked. Live (TCP) deployments tick on wall clocks that
	// skew by fractions of a round across processes; in the virtual-time
	// simnet this stays zero.
	EarlyBuffered uint64
	// AcksSent and AcksReceived count the P4 acknowledgment traffic.
	AcksSent     uint64
	AcksReceived uint64
	// Halts is 1 once the peer executed halt-on-divergence.
	Halts uint64
	// SendFailures counts multicast destinations that could not be sealed
	// or addressed (e.g. a peer that vanished mid-round). They degrade to
	// omissions — the rest of the multicast proceeds — so a crashed peer
	// cannot wedge a broadcast.
	SendFailures uint64
	// LinksEstablished counts the blinded channels the peer has opened:
	// N-1 once it has talked to everyone, fewer under a sampling protocol.
	LinksEstablished uint64
}

// counters are the peer's registered metric handles, mirroring Stats in
// the telemetry registry. A deployment without a registry gets nil
// handles, whose updates are no-ops (telemetry.Counter is nil-safe), so
// no hot-path site guards them.
type counters struct {
	delivered       *telemetry.Counter
	authFailures    *telemetry.Counter
	roundMismatches *telemetry.Counter
	earlyBuffered   *telemetry.Counter
	acksSent        *telemetry.Counter
	acksReceived    *telemetry.Counter
	halts           *telemetry.Counter
	sendFailures    *telemetry.Counter
	envelopesSent   *telemetry.Counter
}

func newCounters(m *telemetry.Metrics) counters {
	return counters{
		delivered:       m.Counter("runtime_delivered_total"),
		authFailures:    m.Counter("runtime_auth_failures_total"),
		roundMismatches: m.Counter("runtime_round_mismatches_total"),
		earlyBuffered:   m.Counter("runtime_early_buffered_total"),
		acksSent:        m.Counter("runtime_acks_sent_total"),
		acksReceived:    m.Counter("runtime_acks_received_total"),
		halts:           m.Counter("runtime_halts_total"),
		sendFailures:    m.Counter("runtime_send_failures_total"),
		envelopesSent:   m.Counter("runtime_envelopes_sent_total"),
	}
}

// batchMsgBounds are the le-buckets of the runtime_batch_msgs histogram:
// messages per flushed batch frame, from the singleton common case up to
// the N-instance bursts of a concurrent ERNG round.
var batchMsgBounds = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}

// nodeBitset is a dense set of NodeIDs. The ACK tracker of a multicast
// previously used a map[wire.NodeID]bool, one allocation per multicast
// plus hashing per ACK; node ids are dense small integers, so a bitset
// does the same job with a single word-slice allocation.
type nodeBitset struct {
	words []uint64
	count int
}

// set records id and reports whether it was newly set, so duplicate ACKs
// (replays) are not double-counted.
func (b *nodeBitset) set(id wire.NodeID) bool {
	w, bit := int(id)/64, uint(id)%64
	if w >= len(b.words) {
		// Joins (AddPeer) can grow membership past the size the tracker
		// was created for.
		grown := make([]uint64, w+1)
		copy(grown, b.words)
		b.words = grown
	}
	if b.words[w]&(1<<bit) != 0 {
		return false
	}
	b.words[w] |= 1 << bit
	b.count++
	return true
}

// reset empties the set, keeping the word capacity for reuse.
func (b *nodeBitset) reset() {
	clear(b.words)
	b.count = 0
}

// unionCount returns |b ∪ o| without materializing the union; either
// side's word slice may be shorter (or nil) than the other.
func (b *nodeBitset) unionCount(o *nodeBitset) int {
	long, short := b.words, o.words
	if len(short) > len(long) {
		long, short = short, long
	}
	n := 0
	for i, w := range long {
		if i < len(short) {
			w |= short[i]
		}
		n += bits.OnesCount64(w)
	}
	return n
}

// ackTracker tracks acknowledgments for one multicast. Classic digest
// ACKs land in acked; frame-cumulative ACKs land once in the shared
// group bitset of the flush window that carried the message, so
// crediting a merged ACK is O(1) instead of O(window trackers). The
// effective count is the union of the two (ackCount).
type ackTracker struct {
	digest    wire.Value
	round     uint32
	threshold int
	acked     nodeBitset
	group     *frameGroup
}

// ackCount is the tracker's effective acknowledgment count: nodes that
// acknowledged the message individually plus nodes that acknowledged
// the whole frame window it was flushed in, counted without double-
// counting a node that somehow did both.
func (tk *ackTracker) ackCount() int {
	if tk.group == nil || tk.group.acked.count == 0 {
		return tk.acked.count
	}
	return tk.acked.unionCount(&tk.group.acked)
}

// frameGroup is the shared acknowledgment state of one flush window's
// frame-ackable frames. Every tracker in the window points at it, and
// every frame flushed from the window indexes it in frameIdx; a merged
// ACK from a destination sets one bit here instead of touching each
// tracker. next chains groups that collide on a frame key (two
// byte-identical frames to one destination in one round — impossible
// under the counter-based model sealer, negligible under random
// nonces) so neither window starves.
type frameGroup struct {
	acked nodeBitset
	next  *frameGroup
}

// ackKey identifies a tracker: ACKs carry the digest of the acknowledged
// message and are only valid within the round of the multicast.
type ackKey struct {
	round  uint32
	digest wire.Value
}

// ackIndexMin is the tracker count past which handleAck switches from the
// linear scan to the digest index. A single-instance round registers a
// handful of trackers and the scan wins; a multiplexed round registers
// one per in-flight instance, where the scan is O(acks × instances) —
// four billion comparisons per round at N=64 with 1k instances.
const ackIndexMin = 16

// frameKey identifies one sealed batch frame a peer sent: the
// destination it went to, the round it left in, and the envelope tag
// both ends read off the sealed bytes (channel.FrameTag). A
// frame-cumulative ACK resolves through this key, so only the frame's
// actual recipient can credit it — strictly narrower than digest ACKs,
// which any peer holding the bytes could issue.
type frameKey struct {
	dst   wire.NodeID
	round uint32
	tag   uint64
}

// pendAck is one acknowledgment deferred during the delivery of a
// frame-ackable batch: everything needed to materialize the classic
// per-message digest ACK if the frame cannot be acknowledged as a unit.
// enc aliases the frame plaintext in openBuf, which outlives the
// deferral — pending ACKs never survive their own delivery event.
type pendAck struct {
	enc       []byte
	initiator wire.NodeID
	instance  uint32
	seq       uint64
}

// Peer is one node's runtime.
type Peer struct {
	encl *enclave.Enclave
	tr   Transport
	cfg  Config
	// links holds the channels opened so far by remote id (see link);
	// quotes is the attested roster their remote keys come from, shared
	// with the other peers built from it.
	links   []*linkEnd
	quotes  []enclave.Quote
	chanCtr *channel.Counters

	proto       Protocol
	rounds      uint32
	round       uint32
	started     bool
	finished    bool
	seqs        []uint64
	instanceID  uint32
	trackers    []*ackTracker
	trackerIdx  map[ackKey]*ackTracker
	startOffset time.Duration
	stats       Stats
	trace       *telemetry.Tracer
	ctr         counters

	// trackerFree holds retired trackers (bitset words included) for
	// Multicast to reuse: closeRound and Stop refill it, so a standing
	// peer allocates trackers only up to its busiest round.
	trackerFree []*ackTracker

	// spans caches trace.SpansEnabled() so every causal-span site costs
	// one bool test when spans are off (and nothing at all builds when
	// the tracer is nil). curSpan is the frame tag of the envelope whose
	// messages are currently being delivered: deliveries and handle hops
	// recorded under it join the sender's seal hop for the same tag in
	// the merged trace (see internal/obsplane).
	spans   bool
	curSpan uint64

	// delivering is the message currently being handed to the protocol by
	// receive, together with the channel plaintext it was decoded from.
	// SendAck recognizes the pointer and hashes that plaintext directly,
	// so acknowledging a received message costs zero extra Encodes.
	delivering        *wire.Message
	deliveringEncoded []byte

	// early holds authenticated messages stamped round+1, parked until
	// the tick catches up (see deliverOne). Entries own copies of their
	// encoding: the receive scratch they arrived in is reused per frame.
	early []earlyMsg

	// rxMsg is the scratch Message every delivery is decoded into
	// (wire.DecodeInto, which also reuses its Set and Sigs capacity):
	// messages are borrowed by OnMessage, never owned, so one broadcast
	// round performs zero message allocations. Reuse is
	// safe for the same reason the byte scratches above are — deliveries
	// are serialized on the event loop and protocols copy what they keep.
	rxMsg wire.Message

	// encodeBuf, sealBuf and openBuf are per-peer scratch buffers for
	// the envelope hot path: Multicast/Send encode messages into
	// encodeBuf (wire.AppendEncode), envelopes are sealed into sealBuf
	// (valid only during the Transport.Send call — implementations that
	// retain payloads copy them), and receive decrypts envelopes into
	// openBuf (channel.OpenRawAppend). All are safe to reuse because
	// the peer's sends and deliveries are serialized on one event loop
	// and none of the encodings outlives its call: decoded messages
	// share no bytes with the plaintext they were parsed from.
	encodeBuf []byte
	sealBuf   []byte
	openBuf   []byte

	// tickFn is the single prebound round-tick callback; tickRound is
	// the round the pending tick will run. A peer has at most one
	// outstanding tick — Start fires only on a fresh peer or after the
	// previous instance finished (the final tick schedules no
	// successor), and a stopped peer's stale tick no-ops on !started —
	// so one (closure, field) pair replaces a per-round closure
	// allocation.
	tickFn    func()
	tickRound uint32

	// Round-scoped outbox (frame coalescing, ROADMAP 4a). While a
	// protocol callback runs (inCallback), sendEncoded appends encoded
	// messages into the destination's outSlot instead of sealing
	// immediately; the callback's caller flushes every slot as one sealed
	// frame per link. out holds a slot per destination written to since
	// the last flush and nothing else, in first-enqueue order, so the
	// flush sequence is deterministic and the outbox is as wide as the
	// peer's widest flush window, whatever N is; a link end remembers its
	// slot (linkEnd.slot). Batch buffers are lent to slots from bufFree
	// and return to it as their frame is sealed, last in, first out.
	// outHasRefs gates the sweep that materializes borrowed singletons
	// (see outSlot.ref).
	batching   bool
	inCallback bool
	outHasRefs bool
	out        []outSlot
	bufFree    [][]byte
	batchHist  *telemetry.Histogram

	// Frame-cumulative acknowledgment (the multiplexed-runtime ACK fast
	// path). Sender side: trackers registered since the last flush form
	// the current flush window [winStart, len(trackers)), and every
	// outSlot counts the window's tracked multicasts that had a leg to
	// its destination (outSlot.cover). A destination whose count equals
	// the window's tracker count received every tracked message of the
	// window, so its multi-message frame is marked frame-ackable and
	// indexed in frameIdx under its envelope tag: one ACK from the
	// recipient sets one bit in the window's shared frameGroup,
	// crediting every tracker at closeRound via the union count.
	// Destinations short of the count — and every destination once
	// winMixed records a failed multicast leg — get ordinary frames and
	// answer with per-message digest ACKs. Receiver side: while a marked
	// frame is being delivered (frameAckOn), SendAck calls for its
	// messages are deferred into pendAcks; if every delivered message
	// was acknowledged, one valueless ACK carrying the frame tag in Seq
	// replaces them all, otherwise (or on any mid-frame flush) they
	// materialize as classic digest ACKs.
	winStart       int
	winMixed       bool
	frameIdx       map[frameKey]*frameGroup
	frameAckOn     bool
	frameAckSrc    wire.NodeID
	frameAckTag    uint64
	frameDelivered int
	pendAcks       []pendAck
}

// linkEnd is what the peer holds per opened link: the channel and, while
// the current flush window has messages for the remote, the 1-based
// position of their slot in Peer.out (0: none). The position fits the
// Link's padding, so it costs a link end nothing.
type linkEnd struct {
	channel.Link
	slot uint32
}

// outSlot is one destination's share of the round-scoped outbox.
type outSlot struct {
	// buf is the batch container under construction, on loan from
	// Peer.bufFree (nil until the slot needs one).
	buf []byte
	// ref borrows the first message a callback emits to the destination
	// straight out of encodeBuf (a multicast's legs all share one
	// encoding) instead of copying it into buf. The borrow is
	// materialized only if the encode scratch is about to be reused
	// (copyOutboxRefs), so the common all-singleton flush never copies a
	// message at all.
	ref []byte
	// n counts the messages enqueued since the last flush.
	n uint32
	// cover counts the flush window's tracked multicasts that had a leg
	// to this destination, and seen is the 1-based p.trackers index of
	// the last one counted, so a destination listed twice in one
	// multicast counts once: a frame ACK credits every tracker of the
	// window, which is sound only for a destination that received each.
	cover, seen uint32
	// dst is whose slot this is: slots sit in first-enqueue order, and a
	// destination finds its own through linkEnd.slot.
	dst wire.NodeID
}

// NewPeer verifies the roster's attestation quotes (F3, property P1),
// binds each to its index, and returns the runtime. The peer's own quote
// must be at index enclave.ID(). No channel is opened here: a pair's
// PeerCh_sgx.Init runs at its first frame (link) or in EstablishLinks.
func NewPeer(encl *enclave.Enclave, tr Transport, roster Roster, cfg Config) (*Peer, error) {
	if encl == nil || tr == nil {
		return nil, errors.New("runtime: nil enclave or transport")
	}
	if cfg.N != len(roster.Quotes) {
		return nil, fmt.Errorf("runtime: roster has %d quotes, config N=%d", len(roster.Quotes), cfg.N)
	}
	if cfg.N < 2 || cfg.T < 0 {
		return nil, fmt.Errorf("runtime: invalid sizes N=%d T=%d", cfg.N, cfg.T)
	}
	if cfg.Delta <= 0 {
		return nil, fmt.Errorf("runtime: invalid delta %v", cfg.Delta)
	}
	if cfg.Sealer == nil {
		cfg.Sealer = channel.RealSealer{}
	}
	self := int(encl.ID())
	for id, q := range roster.Quotes {
		if id == self {
			continue
		}
		if !roster.PreVerified {
			if err := enclave.VerifyQuote(roster.ServiceKey, roster.Measurement, q); err != nil {
				return nil, fmt.Errorf("runtime: attestation of peer %d: %w", id, err)
			}
		}
		if q.NodeID != wire.NodeID(id) {
			return nil, fmt.Errorf("runtime: quote %d claims node id %d", id, q.NodeID)
		}
	}
	p := &Peer{
		encl:     encl,
		tr:       tr,
		cfg:      cfg,
		links:    make([]*linkEnd, cfg.N),
		quotes:   roster.Quotes,
		chanCtr:  channel.NewCounters(cfg.Metrics),
		seqs:     make([]uint64, cfg.N),
		trace:    cfg.Trace,
		ctr:      newCounters(cfg.Metrics),
		batching: !cfg.DisableBatching,
		spans:    cfg.Trace.SpansEnabled(),
	}
	if p.batching {
		p.batchHist = cfg.Metrics.Histogram("runtime_batch_msgs", batchMsgBounds)
	}
	tr.SetHandler(p.receive)
	return p, nil
}

// link returns the blinded channel to id, opening it at the pair's first
// use. It is nil for the peer's own id and ids outside the roster, and
// stays nil when the key agreement fails (a halted enclave refuses it):
// the caller sees an unknown peer, the wire an omission.
func (p *Peer) link(id wire.NodeID) *linkEnd {
	if int(id) >= len(p.links) {
		return nil
	}
	if l := p.links[id]; l != nil || id == p.ID() {
		return l
	}
	_ = p.establish(id)
	return p.links[id]
}

// establish is PeerCh_sgx.Init toward id. The keys are a function of the
// pair alone, so which end asks first, or on which goroutine, changes
// nothing either end later seals.
func (p *Peer) establish(id wire.NodeID) error {
	l := new(linkEnd)
	if err := channel.Establish(&l.Link, p.encl, id, p.quotes[id].DHPublic, p.cfg.Sealer); err != nil {
		return fmt.Errorf("runtime: link to %d: %w", id, err)
	}
	l.SetCounters(p.chanCtr)
	p.links[id] = l
	p.stats.LinksEstablished++
	return nil
}

// EstablishLinks opens every channel the peer has not used yet (a halted
// peer: none). It touches this peer's state and the locked key cache
// only, so a deployment runs it for all its peers side by side.
func (p *Peer) EstablishLinks() error {
	if p.Halted() {
		return nil
	}
	for id, l := range p.links {
		if l != nil || wire.NodeID(id) == p.ID() {
			continue
		}
		if err := p.establish(wire.NodeID(id)); err != nil {
			return err
		}
	}
	return nil
}

// ID returns this peer's node id.
func (p *Peer) ID() wire.NodeID { return p.encl.ID() }

// N returns the network size.
func (p *Peer) N() int { return p.cfg.N }

// T returns the byzantine bound.
func (p *Peer) T() int { return p.cfg.T }

// Delta returns the delivery bound.
func (p *Peer) Delta() time.Duration { return p.cfg.Delta }

// Enclave exposes the peer's enclave to the protocol layer (which is
// trusted code; the OS layer never holds a *Peer).
func (p *Peer) Enclave() *enclave.Enclave { return p.encl }

// Stats returns a snapshot of the runtime counters.
func (p *Peer) Stats() Stats { return p.stats }

// Metrics exposes the deployment's metrics registry to the protocol layer
// (nil when the deployment runs without one).
func (p *Peer) Metrics() *telemetry.Metrics { return p.cfg.Metrics }

// Trace records a protocol-layer event against this peer's current round,
// attributed to the peer's current instance (epoch). Protocols call it
// for their own milestones (INIT/ECHO/accept, cluster sampling,
// decisions); runtime-level events are recorded internally.
func (p *Peer) Trace(kind telemetry.Kind, peer wire.NodeID, arg uint64) {
	p.traceInst(p.instanceID, kind, peer, arg)
}

// traceInst records a protocol-layer event attributed to an explicit
// instance id — the entry point a Mux's instance handles route their
// Trace through, so every milestone of a multiplexed run names the
// instance that produced it.
func (p *Peer) traceInst(instance uint32, kind telemetry.Kind, peer wire.NodeID, arg uint64) {
	if p.trace != nil {
		p.trace.RecordInst(p.ID(), p.round, instance, kind, peer, arg, "")
	}
}

// Halted reports whether this peer has churned itself out.
func (p *Peer) Halted() bool { return p.encl.Halted() }

// Round returns the current lockstep round (0 before Start).
func (p *Peer) Round() uint32 { return p.round }

// Now returns the transport's current time (virtual in simulation).
func (p *Peer) Now() time.Duration { return p.tr.Now() }

// Instance returns the current protocol instance (epoch) number.
func (p *Peer) Instance() uint32 { return p.instanceID }

// InitialSeq draws this peer's initial sequence number inside the enclave
// (setup phase; property P6).
func (p *Peer) InitialSeq() (uint64, error) {
	return p.encl.RandomSeq()
}

// InstallSeqs installs the sequence numbers of all peers, as exchanged
// over the blinded channels during setup. In the simulator the exchange is
// orchestrated by Setup; in the TCP deployment it is a real message round.
func (p *Peer) InstallSeqs(seqs []uint64) error {
	if len(seqs) != p.cfg.N {
		return fmt.Errorf("runtime: got %d seqs, want %d", len(seqs), p.cfg.N)
	}
	copy(p.seqs, seqs)
	return nil
}

// SeqOf returns the expected current sequence number of a peer.
func (p *Peer) SeqOf(id wire.NodeID) uint64 { return p.seqs[int(id)] }

// AddPeer extends the membership with a newly joined node (the dynamic
// join of Appendix G / assumption S1): the quote is verified and the
// joiner's initial sequence number recorded; its channel opens like any
// other, at the first frame. The new node's id must be the next dense
// index.
func (p *Peer) AddPeer(roster Roster, q enclave.Quote, seq uint64) error {
	if p.Halted() {
		return ErrHalted
	}
	if q.NodeID != wire.NodeID(len(p.links)) {
		return fmt.Errorf("runtime: joiner id %d is not the next index %d", q.NodeID, len(p.links))
	}
	if err := enclave.VerifyQuote(roster.ServiceKey, roster.Measurement, q); err != nil {
		return fmt.Errorf("runtime: attestation of joiner %d: %w", q.NodeID, err)
	}
	// Clipped, so the append copies the shared roster, never extends it.
	p.quotes = append(p.quotes[:len(p.quotes):len(p.quotes)], q)
	p.links = append(p.links, nil)
	p.seqs = append(p.seqs, seq)
	p.cfg.N++
	return nil
}

// AlignInstance sets the instance (epoch) counter; a joining node calls
// it so its message-freshness state matches the network it joined.
func (p *Peer) AlignInstance(instance uint32) {
	p.instanceID = instance
}

// BumpSeqs increments every peer's sequence number after a completed
// instance ("After every valid instance of the protocol, nodes will
// increase all sequence numbers by 1") and advances the instance id.
func (p *Peer) BumpSeqs() {
	for i := range p.seqs {
		p.seqs[i]++
	}
	p.instanceID++
}

// Start begins a protocol instance: the enclave's trusted-time reference
// is reset to "now" (synchronized start, S2), and rounds 1..rounds are
// scheduled every 2*Delta. OnFinish fires at the end of the last round.
func (p *Peer) Start(proto Protocol, rounds int) {
	p.StartIn(proto, rounds, 0)
}

// StartIn begins a protocol instance whose round 1 fires after the given
// delay. Live (TCP) deployments use it to arm every peer ahead of the
// agreed start instant, so no round-1 message can arrive at a peer that
// has not started yet — the synchronized-start assumption S2 realized
// across processes.
func (p *Peer) StartIn(proto Protocol, rounds int, startDelay time.Duration) {
	if startDelay < 0 {
		startDelay = 0
	}
	p.proto = proto
	p.rounds = uint32(rounds)
	p.round = 0
	p.started = true
	p.finished = false
	p.closeWindow()
	clear(p.frameIdx)
	p.frameAckOn = false
	p.pendAcks = p.pendAcks[:0]
	p.early = nil
	p.encl.ResetReference()
	p.startOffset = startDelay
	p.scheduleTick(1)
}

func (p *Peer) scheduleTick(rnd uint32) {
	delay := p.startOffset + time.Duration(rnd-1)*2*p.cfg.Delta
	p.tickRound = rnd
	if p.tickFn == nil {
		p.tickFn = func() { p.tick(p.tickRound) }
	}
	// Re-anchor against the enclave's trusted elapsed time so a byzantine
	// OS cannot skew the tick (F4 / lockstep P5).
	p.tr.After(delay-p.encl.ElapsedTime(), p.tickFn)
}

func (p *Peer) tick(rnd uint32) {
	if p.Halted() || !p.started {
		return
	}
	p.closeRound()
	if p.Halted() {
		return
	}
	if rnd > p.rounds {
		p.finished = true
		p.inCallback = true
		p.proto.OnFinish()
		p.inCallback = false
		p.flushOutbox()
		return
	}
	p.round = rnd
	if p.trace != nil {
		p.trace.Record(p.ID(), rnd, telemetry.KindRound, wire.NoNode, 0, "")
	}
	p.inCallback = true
	p.proto.OnRound(rnd)
	p.inCallback = false
	p.replayEarly()
	// Flush the callback's coalesced frames at the same virtual instant
	// the unbatched runtime would have sent them: still inside the tick
	// event, before any 2Δ of the round has elapsed, so the lockstep
	// round stamps and the P4 ACK window are unchanged (messages arrive
	// within Δ, ACKs return within the same round).
	p.flushOutbox()
	if !p.Halted() {
		p.scheduleTick(rnd + 1)
	}
}

// closeRound evaluates the ACK trackers of the round that just ended: a
// multicast that gathered fewer than threshold acknowledgments halts the
// peer (property P4, the Halt function of Algorithm 2).
func (p *Peer) closeRound() {
	starved := false
	for _, tk := range p.trackers {
		if tk.ackCount() < tk.threshold {
			starved = true
			break
		}
	}
	p.retireTrackers()
	if starved {
		p.haltSelf("ack-threshold")
	}
}

// retireTrackers ends the round's acknowledgment bookkeeping: every
// tracker moves to the freelist, and the indexes that pointed at them and
// the flush window that spanned them are reset.
func (p *Peer) retireTrackers() {
	p.trackerFree = append(p.trackerFree, p.trackers...)
	p.trackers = p.trackers[:0]
	clear(p.trackerIdx)
	clear(p.frameIdx)
	p.closeWindow()
}

// newTracker registers a tracker for a multicast of the current round,
// reusing a retired one when the freelist has any, and returns its 1-based
// index in p.trackers.
func (p *Peer) newTracker(digest wire.Value, threshold int) int {
	var tk *ackTracker
	if n := len(p.trackerFree); n > 0 {
		tk = p.trackerFree[n-1]
		p.trackerFree[n-1] = nil
		p.trackerFree = p.trackerFree[:n-1]
		tk.acked.reset()
		tk.group = nil
	} else {
		tk = new(ackTracker)
	}
	tk.digest, tk.round, tk.threshold = digest, p.round, threshold
	p.trackers = append(p.trackers, tk)
	p.indexTracker()
	return len(p.trackers)
}

// Stop withdraws the peer from its protocol instance without executing
// halt-on-divergence: pending round ticks become no-ops, inbound
// deliveries are dropped, and ACK trackers are discarded. It models a
// machine crash (the chaos engine's CrashAt), where the node simply
// vanishes instead of deliberately churning out; the enclave is NOT
// halted — its state is lost with the machine, and the node can only
// come back as a freshly launched enclave (deploy.Restart).
//
// Stop flushes the outbox first — deterministically, every time — so a
// message the protocol already handed to Multicast/Send is on the wire
// exactly as it would be unbatched, where sends leave during the callback.
// Frames in flight at the moment the machine vanishes are dropped by the
// transport's detach epoch: a coalesced frame lost there drops all of its
// messages at once, the whole-batch omission the chaos suite exercises.
func (p *Peer) Stop() {
	p.flushOutbox()
	p.started = false
	p.proto = nil
	p.retireTrackers()
	p.early = nil
	p.frameAckOn = false
}

// HaltSelf executes halt-on-divergence: the enclave state becomes bottom
// and the node churns out of the network.
func (p *Peer) HaltSelf() { p.haltSelf("") }

// haltSelf is HaltSelf with a trace annotation naming the trigger. The
// outbox is flushed before the enclave halts and the transport detaches:
// unbatched, every message sent earlier in the same callback was already
// on the wire when the halt struck, so coalescing must put them there too.
func (p *Peer) haltSelf(why string) {
	if p.Halted() {
		return
	}
	p.flushOutbox()
	p.stats.Halts++
	p.ctr.halts.Inc()
	if p.trace != nil {
		p.trace.Record(p.ID(), p.round, telemetry.KindHalt, wire.NoNode, 0, why)
	}
	p.encl.Halt()
	p.tr.Detach()
}

// Digest computes H(val), the message digest ACKs carry. A nil message
// is reported as ErrNilMessage rather than a panic.
func Digest(msg *wire.Message) (wire.Value, error) {
	var d wire.Value
	if msg == nil {
		return d, ErrNilMessage
	}
	enc, err := msg.Encode()
	if err != nil {
		return d, err
	}
	return DigestEncoded(enc), nil
}

// DigestEncoded computes H(val) from an already-encoded message. The hot
// paths (multicast, ACK of a just-received message) hold the encoding
// already; hashing it directly avoids a second Encode of the same bytes.
func DigestEncoded(encoded []byte) wire.Value {
	return sha256.Sum256(encoded)
}

// Multicast seals msg for every destination and sends it. If ackThreshold
// is positive the runtime tracks acknowledgments until the end of the
// current round and halts the peer if fewer than ackThreshold arrive.
// Destinations nil means "all other peers". Per-destination failures
// degrade to omissions (see multicastOne); the error return is reserved
// for encode failures and a halted sender.
//
// The message is encoded exactly once, into the peer's reused encode
// scratch; each link seals the shared encoding into a fresh envelope
// (channel.SealEncodedAppend), so a multicast to N-1 destinations costs
// zero steady-state encode allocations and exactly one exactly-sized
// allocation per envelope.
func (p *Peer) Multicast(dsts []wire.NodeID, msg *wire.Message, ackThreshold int) error {
	if p.Halted() {
		return ErrHalted
	}
	if p.outHasRefs {
		p.copyOutboxRefs()
	}
	encoded, err := msg.AppendEncode(p.encodeBuf[:0])
	if err != nil {
		return err
	}
	p.encodeBuf = encoded
	tracked := 0
	if ackThreshold > 0 {
		tracked = p.newTracker(DigestEncoded(encoded), ackThreshold)
	}
	if dsts == nil {
		for id := 0; id < p.cfg.N; id++ {
			if wire.NodeID(id) == p.ID() {
				continue
			}
			if err := p.multicastOne(wire.NodeID(id), encoded, tracked); err != nil {
				return err
			}
		}
		return nil
	}
	for _, dst := range dsts {
		if dst == p.ID() {
			continue
		}
		if err := p.multicastOne(dst, encoded, tracked); err != nil {
			return err
		}
	}
	return nil
}

// multicastOne seals and sends one multicast leg. A per-destination
// failure — an unknown or vanished peer, a seal error on its link — is
// recorded and swallowed: under the omission model a dead destination is
// indistinguishable from an omitting network, and aborting the loop
// would silently starve every destination after the failed one (the
// multicast wedge the chaos crash schedules exposed). Only ErrHalted
// aborts: a halted sender must not keep transmitting.
func (p *Peer) multicastOne(dst wire.NodeID, encoded []byte, tracked int) error {
	err := p.sendEncoded(dst, encoded, tracked)
	if err == nil || errors.Is(err, ErrHalted) {
		return err
	}
	// The failed leg's destination now sees a frame missing this message:
	// the window's frames are no longer uniform, so a frame-cumulative
	// ACK from that destination would over-credit the tracker of a
	// message it never received. Degrade the window.
	p.winMixed = true
	p.sendFailed(1)
	if p.trace != nil {
		inst, _ := wire.PeekInstance(encoded)
		p.trace.RecordInst(p.ID(), p.round, inst, telemetry.KindSendFail, dst, 0, "")
	}
	return nil
}

// Send seals msg for one destination and hands it to the transport.
func (p *Peer) Send(dst wire.NodeID, msg *wire.Message) error {
	if p.outHasRefs {
		p.copyOutboxRefs()
	}
	encoded, err := msg.AppendEncode(p.encodeBuf[:0])
	if err != nil {
		return err
	}
	p.encodeBuf = encoded
	return p.sendEncoded(dst, encoded, 0)
}

// sendEncoded seals an already-encoded message for one destination and
// hands the envelope to the transport — or, while a protocol callback
// runs with batching on, appends it to the destination's outbox buffer
// for the end-of-callback flush. The unknown-peer check stays here, at
// enqueue time, so Multicast's omission accounting is identical in both
// modes. tracked is the tracker index of the multicast this leg belongs
// to (newTracker), 0 for an untracked send.
func (p *Peer) sendEncoded(dst wire.NodeID, encoded []byte, tracked int) error {
	if p.Halted() {
		return ErrHalted
	}
	l := p.link(dst)
	if l == nil {
		return ErrUnknownPeer
	}
	if p.batching && p.inCallback {
		p.enqueueBatch(l, encoded, tracked)
		return nil
	}
	// Direct send: every send of a DisableBatching deployment (the figure
	// experiments), and trusted code sending outside any callback. No send
	// of the five bench workloads takes it; it stays because routing it
	// through flushOutbox would need a flag to keep unbatched traces free
	// of KindBatchFlush (ROADMAP item 2).
	_, err := p.sealSend(dst, encoded)
	return err
}

// sendFailed counts n messages that could not be sealed or addressed:
// omissions, as far as the protocol can tell.
func (p *Peer) sendFailed(n uint64) {
	p.stats.SendFailures += n
	p.ctr.sendFailures.Add(n)
}

// sealSend is the one place a frame leaves the peer: it seals plaintext —
// a bare encoded message or a batch container — for dst, hands the
// envelope to the transport and returns its frame tag. Envelopes are
// sealed into the peer's reused seal scratch: the Transport.Send contract
// makes the payload valid only during the call, so a transport (or
// adversary wrapper) that keeps the envelope copies it, and the runtime
// pays no per-envelope allocation. On a seal error nothing was sent; the
// caller does the omission accounting (per leg in multicastOne, per
// buffered message in flushOutbox).
func (p *Peer) sealSend(dst wire.NodeID, plaintext []byte) (uint64, error) {
	sp := p.trace.BeginSpan()
	env, err := p.link(dst).SealEncodedAppend(p.sealBuf[:0], plaintext)
	if err != nil {
		return 0, err
	}
	p.sealBuf = env
	tag := channel.FrameTag(env)
	if p.spans {
		// For a coalesced frame this is the seal of the whole frame; the
		// hop is attributed to the tag every entry's delivery inherits.
		sp.Finish(p.ID(), p.round, 0, telemetry.KindSeal, dst, tag)
	}
	p.ctr.envelopesSent.Inc()
	p.tr.Send(dst, env)
	return tag, nil
}

// enqueueBatch appends one encoded message to the outbox slot of l's
// remote, opening the slot if this is the window's first message to it.
// The destination was validated by sendEncoded; enqueueing cannot fail —
// seal errors surface at flush time, where they degrade to omissions
// exactly like a failed multicast leg.
func (p *Peer) enqueueBatch(l *linkEnd, encoded []byte, tracked int) {
	if l.slot == 0 {
		// Borrow the encoded bytes instead of copying them. The borrow
		// lives in encodeBuf, which is not reused before copyOutboxRefs
		// materializes it.
		p.out = append(p.out, outSlot{dst: l.Remote(), ref: encoded})
		l.slot = uint32(len(p.out))
		p.outHasRefs = true
	}
	o := &p.out[l.slot-1]
	if tracked != 0 && o.seen != uint32(tracked) {
		o.seen = uint32(tracked)
		o.cover++
	}
	o.n++
	if o.n == 1 {
		return
	}
	// A borrow still standing here is the same encoding enqueued twice to
	// one dst (duplicate entries in an explicit Multicast dsts list) — no
	// intervening encode ran to materialize it.
	p.materialize(o)
	o.buf = wire.AppendBatchEntry(o.buf, encoded)
}

// materialize copies a borrowed singleton into a batch buffer of the
// slot's own, the one most recently returned to the pool. (The pool's
// stale tail entry is overwritten when this window's flush returns it.)
func (p *Peer) materialize(o *outSlot) {
	if o.ref == nil {
		return
	}
	if n := len(p.bufFree); n > 0 {
		o.buf, p.bufFree = p.bufFree[n-1], p.bufFree[:n-1]
	}
	o.buf = wire.AppendBatchEntry(o.buf[:0], o.ref)
	o.ref = nil
}

// copyOutboxRefs materializes every borrowed outbox reference into a
// batch buffer. It runs just before the encode scratch is reused — until
// that moment a singleton outbox entry is only a view of the bytes the
// last encode produced. A callback that encodes once and flushes (one
// multicast, or one ACK — the steady state of every protocol in this
// repo) therefore never copies a message between encode and seal.
func (p *Peer) copyOutboxRefs() {
	for i := range p.out {
		p.materialize(&p.out[i])
	}
	p.outHasRefs = false
}

// Flush forces the round-scoped outbox onto the wire immediately: the
// escape hatch for trusted code that must have its frames in flight
// before its callback returns (e.g. a protocol that waits on the ACKs
// of a multicast it just issued). With batching off, or an empty
// outbox, it is a no-op.
func (p *Peer) Flush() { p.flushOutbox() }

// flushOutbox seals and sends every outbox slot: one envelope per
// destination covering all messages a callback emitted to it. A slot
// holding a single message is sent as the bare encoded message —
// byte-identical framing to an unbatched send — so coalescing only ever
// changes the wire when it has something to coalesce. A slot's batch
// buffer goes back to the pool, capacity kept, as soon as its frame is
// sealed (the plaintext never leaves the peer); flush order is
// first-enqueue order, which is deterministic, keeping trace streams and
// simulated network schedules bit-reproducible per seed.
func (p *Peer) flushOutbox() {
	if len(p.pendAcks) > 0 {
		// A mid-delivery flush (halt, stop, or a protocol Flush) must put
		// the deferred acknowledgments on the wire exactly where the
		// unbatched runtime would have: before anything that follows.
		p.frameAckOn = false
		p.emitPendAcks()
	}
	// The flush window's trackers: a destination whose slot counted a leg
	// of every one of them gets a frame that carries every tracked message
	// registered since the previous flush. The frameGroup they will share
	// is allocated lazily, only if a frame is actually marked.
	var group []*ackTracker
	if !p.winMixed {
		group = p.trackers[p.winStart:]
	}
	var fg *frameGroup
	for i := range p.out {
		o := &p.out[i]
		dst, n := o.dst, uint64(o.n)
		covered := len(group) > 0 && int(o.cover) == len(group)
		p.links[dst].slot = 0
		marked := false
		// A borrowed singleton is the bare encoded message, still alive
		// in encodeBuf — already in unbatched framing, zero copies.
		plaintext := o.ref
		if plaintext == nil {
			plaintext = o.buf
			if n == 1 {
				// Strip the container: magic byte + one length prefix.
				plaintext = plaintext[5:]
			} else if covered {
				// Multi-message frame that carries every tracked message
				// of the window: invite one frame-cumulative ACK for it.
				wire.MarkBatchAcked(plaintext)
				marked = true
			}
		}
		tag, err := p.sealSend(dst, plaintext)
		if o.buf != nil {
			p.bufFree = append(p.bufFree, o.buf)
		}
		if err != nil {
			// Degrade the whole frame to omissions, one per buffered
			// message, mirroring the per-leg accounting of multicastOne.
			p.sendFailed(n)
			if p.trace != nil {
				p.trace.Record(p.ID(), p.round, telemetry.KindSendFail, dst, n, "")
			}
			continue
		}
		if p.trace != nil {
			p.trace.Record(p.ID(), p.round, telemetry.KindBatchFlush, dst, n, "")
		}
		p.batchHist.Observe(float64(n))
		if marked {
			if fg == nil {
				fg = &frameGroup{}
				for _, tk := range group {
					tk.group = fg
				}
			}
			p.registerFrame(dst, tag, fg)
		}
	}
	clear(p.out)
	p.out = p.out[:0]
	p.outHasRefs = false
	p.closeWindow()
}

// closeWindow ends the current flush window: trackers registered from
// here on belong to the next window's frames.
func (p *Peer) closeWindow() {
	p.winStart = len(p.trackers)
	p.winMixed = false
}

// registerFrame indexes one flushed frame-ackable frame under its
// envelope tag so a frame-cumulative ACK from dst can credit the whole
// window's trackers through the shared frameGroup. The index lives
// until closeRound retires the round's trackers. A duplicate key
// chains the colliding groups (frameGroup.next) so neither window
// starves.
func (p *Peer) registerFrame(dst wire.NodeID, tag uint64, fg *frameGroup) {
	if p.frameIdx == nil {
		p.frameIdx = make(map[frameKey]*frameGroup)
	}
	k := frameKey{dst: dst, round: p.round, tag: tag}
	if prev, dup := p.frameIdx[k]; dup {
		for g := prev; g != fg; g = g.next {
			if g.next == nil {
				g.next = fg
				break
			}
		}
		return
	}
	p.frameIdx[k] = fg
}

// SendAck acknowledges a valid received message: ACKs carry the digest
// H(val) of the acknowledged message, the initiator's sequence number and
// the current round, per Section 4's val format.
//
// When the acknowledged message is the one currently being delivered by
// receive (the common case — protocols ACK from inside OnMessage), the
// digest is taken from the plaintext the channel just opened instead of
// re-encoding the message.
//
// A nil received message is rejected with ErrNilMessage instead of
// panicking inside the digest computation.
func (p *Peer) SendAck(dst wire.NodeID, received *wire.Message) error {
	if received == nil {
		return ErrNilMessage
	}
	a := pendAck{
		enc:       p.deliveringEncoded,
		initiator: received.Initiator,
		instance:  received.Instance,
		seq:       received.Seq,
	}
	if received != p.delivering {
		var err error
		if a.enc, err = received.Encode(); err != nil {
			return err
		}
	}
	p.stats.AcksSent++
	p.ctr.acksSent.Inc()
	if p.trace != nil {
		p.trace.RecordInst(p.ID(), p.round, received.Instance, telemetry.KindAckSent, dst, 0, "")
	}
	if p.frameAckOn && dst == p.frameAckSrc && received == p.delivering {
		// The message arrived in a frame-ackable batch and is being
		// acknowledged to that frame's sender: defer the wire message.
		// If every delivered message of the frame is acknowledged this
		// way, one frame-cumulative ACK replaces them all; otherwise the
		// deferred entries materialize as classic digest ACKs. Stats and
		// trace have recorded the logical acknowledgment either way.
		p.pendAcks = append(p.pendAcks, a)
		return nil
	}
	return p.sendDigestAck(dst, &a)
}

// sendDigestAck sends the classic per-message acknowledgment of a.
func (p *Peer) sendDigestAck(dst wire.NodeID, a *pendAck) error {
	ack := wire.Message{
		Type:      wire.TypeAck,
		Sender:    p.ID(),
		Initiator: a.initiator,
		Instance:  a.instance,
		Seq:       a.seq,
		Round:     p.round,
		HasValue:  true,
		Value:     DigestEncoded(a.enc),
	}
	return p.Send(dst, &ack)
}

// receive is the transport delivery callback: it opens the envelope,
// unbatches coalesced frames, enforces the lockstep round check per
// message, consumes ACKs, and forwards protocol messages. Anything the
// protocol sent from its OnMessage callbacks is flushed when the
// delivery event ends — the same virtual instant an unbatched runtime
// would have sent it, and one frame per destination even when several
// batch entries each ACKed the same peer.
func (p *Peer) receive(src wire.NodeID, payload []byte) {
	if p.Halted() || !p.started || p.finished {
		return
	}
	link := p.link(src)
	if link == nil {
		return
	}
	// Envelopes are decrypted into the peer's reused open scratch: the
	// plaintext is only alive while this delivery runs (the decoded
	// messages share no bytes with it), so a warm receive pays no
	// plaintext allocation.
	sp := p.trace.BeginSpan()
	plaintext, err := link.OpenRawAppend(p.openBuf[:0], payload)
	if err != nil {
		p.recvFailure(src)
		return
	}
	if p.spans {
		// The frame tag reads the same sealed bytes the sender hashed, so
		// this open hop and the sender's seal hop share one span id.
		p.curSpan = channel.FrameTag(payload)
		sp.Finish(p.ID(), p.round, 0, telemetry.KindOpen, src, p.curSpan)
	}
	p.openBuf = plaintext
	if wire.IsBatch(plaintext) {
		if wire.IsAckedBatch(plaintext) {
			p.beginFrameAcks(src, channel.FrameTag(payload))
		}
		clean := p.receiveBatch(src, plaintext)
		p.finishFrameAcks(clean)
	} else {
		p.receiveOne(src, plaintext)
	}
	p.flushOutbox()
}

// beginFrameAcks arms frame-cumulative acknowledgment for one marked
// batch frame: SendAck calls for its messages are deferred until the
// frame's delivery completes.
func (p *Peer) beginFrameAcks(src wire.NodeID, tag uint64) {
	p.frameAckOn = true
	p.frameAckSrc = src
	p.frameAckTag = tag
	p.frameDelivered = 0
}

// finishFrameAcks settles the deferred acknowledgments of a marked
// frame. clean reports that every entry was delivered: only then, and
// only when the protocol acknowledged every delivered message, does one
// valueless ACK carrying the frame tag replace the per-message digest
// ACKs — anything else (a cut-short frame, a selective protocol, a
// double ACK) falls back to materializing them individually, which is
// exactly the unbatched wire behaviour.
func (p *Peer) finishFrameAcks(clean bool) {
	on, merged := p.frameAckOn, clean && len(p.pendAcks) == p.frameDelivered
	p.frameAckOn = false
	p.frameDelivered = 0
	if !on || len(p.pendAcks) == 0 {
		return
	}
	if !merged {
		p.emitPendAcks()
		return
	}
	// Instance carries the number of per-message acknowledgments the
	// frame ACK stands for — frame ACKs span instances by design, so
	// the field is free. The sender uses it only for accounting
	// (Stats.AcksReceived stays a count of logical acknowledgments in
	// every mode); tracker crediting never trusts it.
	ack := wire.Message{
		Type:      wire.TypeAck,
		Sender:    p.ID(),
		Initiator: wire.NoNode,
		Instance:  uint32(len(p.pendAcks)),
		Seq:       p.frameAckTag,
		Round:     p.round,
	}
	p.pendAcks = p.pendAcks[:0]
	wasIn := p.inCallback
	p.inCallback = true
	p.ackSendFailed(p.Send(p.frameAckSrc, &ack))
	p.inCallback = wasIn
}

// emitPendAcks sends one classic digest ACK per deferred entry, in
// deferral order: the fallback of a frame that cannot be acknowledged as
// a unit, and what a mid-frame flush (halt, stop, protocol Flush) puts on
// the wire, where the unbatched runtime would have had those ACKs
// already. inCallback is forced on so the ACKs join the round-scoped
// outbox and coalesce exactly like ACKs sent from inside OnMessage.
func (p *Peer) emitPendAcks() {
	pend := p.pendAcks
	p.pendAcks = pend[:0]
	wasIn := p.inCallback
	p.inCallback = true
	for i := range pend {
		p.ackSendFailed(p.sendDigestAck(p.frameAckSrc, &pend[i]))
	}
	p.inCallback = wasIn
}

// ackSendFailed applies multicastOne's omission accounting to a deferred
// acknowledgment's send result: a failed ACK is indistinguishable from
// an omitting network, and a halted sender has already stopped counting.
func (p *Peer) ackSendFailed(err error) {
	if err == nil || errors.Is(err, ErrHalted) {
		return
	}
	p.sendFailed(1)
}

// receiveOne handles a bare (non-coalesced) frame: one encoded message.
func (p *Peer) receiveOne(src wire.NodeID, encoded []byte) {
	msg := &p.rxMsg
	if err := wire.DecodeInto(msg, encoded); err != nil || msg.Sender != src {
		p.recvFailure(src)
		return
	}
	p.deliverOne(src, msg, encoded)
}

// receiveBatch walks a coalesced frame entry by entry. The envelope MAC
// covered the whole container, so with honest enclaves every entry
// decodes; a malformed entry means the frame was not produced by this
// link's enclave after all and the remainder is dropped as one omission
// (entries already delivered stay delivered — omission cuts a prefix,
// exactly like a lost unbatched suffix). Every entry gets the same
// per-message round/replay checks and telemetry attribution an
// unbatched delivery gets, and the delivery guards are re-checked
// between entries because OnMessage may halt or stop the peer.
// It reports whether the frame was delivered clean — every entry parsed
// and handed through deliverOne without the peer halting, stopping or
// finishing mid-frame — which is what a frame-cumulative ACK certifies.
// The decode-and-bind lines repeat receiveOne's instead of calling it: the
// extra call per entry measured ≈ 2 % of a basic-ERNG epoch (35 k entries).
func (p *Peer) receiveBatch(src wire.NodeID, plaintext []byte) bool {
	it, err := wire.IterBatch(plaintext)
	if err != nil {
		p.recvFailure(src)
		return false
	}
	for {
		raw, ok, nerr := it.Next()
		if nerr != nil {
			p.recvFailure(src)
			return false
		}
		if !ok {
			return true
		}
		msg := &p.rxMsg
		if derr := wire.DecodeInto(msg, raw); derr != nil || msg.Sender != src {
			p.recvFailure(src)
			return false
		}
		p.deliverOne(src, msg, raw)
		if p.Halted() || !p.started || p.finished {
			return false
		}
	}
}

// earlyMsg is one parked early arrival: a deep copy of the decoded message
// (the next delivery decodes into the shared rxMsg scratch, Set and Sigs
// backing arrays included) and its exact transmitted encoding, copied out
// of the reused open scratch so SendAck digests the same bytes a live
// delivery would.
type earlyMsg struct {
	src wire.NodeID
	msg wire.Message
	enc []byte
	// span is the frame tag of the envelope the message arrived in,
	// restored at replay so the delayed delivery still joins its span.
	span uint64
}

// earlyPerPeer bounds the early buffer at earlyPerPeer*N messages —
// comfortably one round of multiplexed traffic, far below what a
// flooding peer would need to matter.
const earlyPerPeer = 64

// replayEarly delivers the messages parked for the round that just
// ticked. It runs inside the tick event after the protocol's OnRound, so
// a replayed message is processed at the same lockstep point as one
// arriving over the wire moments later; acknowledgments it triggers join
// the tick's outbox flush. Entries from a previous instance (the peer
// restarted while they were parked) no longer match the current round
// and fall through deliverOne's stale drop.
func (p *Peer) replayEarly() {
	if len(p.early) == 0 {
		return
	}
	parked := p.early
	p.early = nil
	for i := range parked {
		if p.Halted() || !p.started || p.finished {
			return
		}
		e := &parked[i]
		p.curSpan = e.span
		p.deliverOne(e.src, &e.msg, e.enc)
	}
	p.curSpan = 0
}

// recvFailure records an envelope (or batch entry) that failed
// authentication, decoding or sender binding: forged, corrupted,
// cross-program or mis-addressed input reduces to an omission
// (Theorem A.2).
func (p *Peer) recvFailure(src wire.NodeID) {
	p.stats.AuthFailures++
	p.ctr.authFailures.Inc()
	if p.trace != nil {
		p.trace.Record(p.ID(), p.round, telemetry.KindAuthFail, src, 0, "")
	}
}

// deliverOne applies the runtime checks to one authenticated message and
// hands it to the protocol: ACK consumption, the lockstep round check,
// and delivery bookkeeping — identical whether the message arrived bare
// or inside a batch. encoded is the message's exact transmitted
// encoding (a batch entry sub-slice or the whole bare plaintext), so
// SendAck digests the same bytes in both modes.
func (p *Peer) deliverOne(src wire.NodeID, msg *wire.Message, encoded []byte) {
	if msg.Type == wire.TypeAck {
		// A frame-cumulative ACK (valueless) stands for msg.Instance
		// logical acknowledgments; count them so Stats.AcksReceived means
		// "acknowledgments received" identically in every batching mode.
		// The count is sender-asserted and purely diagnostic — tracker
		// crediting below is one bit per (frame, recipient) regardless.
		n := uint64(1)
		if !msg.HasValue && msg.Instance > 1 {
			n = uint64(msg.Instance)
		}
		p.stats.AcksReceived += n
		p.ctr.acksReceived.Add(n)
		if p.trace != nil {
			p.trace.RecordInst(p.ID(), p.round, msg.Instance, telemetry.KindAckRecv, src, n, "")
		}
		p.handleAck(src, msg)
		return
	}
	// A message stamped exactly one round ahead arrived from a peer
	// whose wall clock ticked marginally earlier — inevitable when the
	// lockstep schedule runs on real clocks across processes, impossible
	// in the virtual-time simnet. Park it until our own tick catches up:
	// delivering it during round+1 is exactly when the lockstep model
	// says it arrives, so the buffer grants a byzantine sender no power
	// it lacks (it could as well have sent the message next round). The
	// buffer is bounded; overflow degrades to the stale-drop omission.
	if msg.Round == p.round+1 && msg.Round <= p.rounds && len(p.early) < earlyPerPeer*p.cfg.N {
		p.stats.EarlyBuffered++
		p.ctr.earlyBuffered.Inc()
		if p.trace != nil {
			p.trace.RecordInst(p.ID(), p.round, msg.Instance, telemetry.KindEarly, src, uint64(msg.Round), "")
		}
		p.early = append(p.early, earlyMsg{
			src:  src,
			msg:  *msg.Clone(),
			enc:  append([]byte(nil), encoded...),
			span: p.curSpan,
		})
		return
	}
	// Lockstep execution (P5): a message stamped with a different round
	// than the receiver's current round is a delayed or replayed message
	// and is ignored, i.e. treated as omitted.
	if msg.Round != p.round {
		p.stats.RoundMismatches++
		p.ctr.roundMismatches.Inc()
		if p.trace != nil {
			p.trace.RecordInst(p.ID(), p.round, msg.Instance, telemetry.KindStale, src, uint64(msg.Round), "")
		}
		return
	}
	p.stats.Delivered++
	p.ctr.delivered.Inc()
	if p.trace != nil {
		if p.spans {
			// Span-attributed delivery: Arg keeps the wire message type,
			// the span ties it to the envelope's seal/open hops.
			p.trace.RecordSpan(p.ID(), p.round, msg.Instance, telemetry.KindDeliver, src, uint64(msg.Type), p.curSpan)
		} else {
			p.trace.RecordInst(p.ID(), p.round, msg.Instance, telemetry.KindDeliver, src, uint64(msg.Type), "")
		}
	}
	if p.frameAckOn {
		p.frameDelivered++
	}
	p.delivering, p.deliveringEncoded = msg, encoded
	sp := p.trace.BeginSpan()
	p.inCallback = true
	p.proto.OnMessage(msg)
	p.inCallback = false
	if p.spans {
		sp.Finish(p.ID(), p.round, msg.Instance, telemetry.KindHandled, src, p.curSpan)
	}
	p.delivering, p.deliveringEncoded = nil, nil
}

// indexTracker adds the tracker just registered to the digest index if the
// round now holds enough trackers for the linear scan to lose; the
// tracker that crosses ackIndexMin brings the round's earlier ones with
// it. The map is retained across rounds and emptied by retireTrackers, so
// the choice between scan and index is made per round, from that round's
// tracker count alone. The index is first-insert-wins: should two
// multicasts of one round share a digest (identical re-broadcasts), the
// linear scan credits only the first — the map keeps the same winner, so
// both lookup paths starve the duplicate identically and
// halt-on-divergence fires in both.
func (p *Peer) indexTracker() {
	n := len(p.trackers)
	if n <= ackIndexMin {
		return
	}
	if p.trackerIdx == nil {
		p.trackerIdx = make(map[ackKey]*ackTracker, 2*n)
	}
	fresh := p.trackers[n-1:]
	if n == ackIndexMin+1 {
		fresh = p.trackers
	}
	for _, tk := range fresh {
		k := ackKey{round: tk.round, digest: tk.digest}
		if _, dup := p.trackerIdx[k]; !dup {
			p.trackerIdx[k] = tk
		}
	}
}

// handleAck credits an acknowledgment to the matching tracker. ACKs are
// only valid within the round of the multicast they acknowledge. Rounds
// with few trackers scan linearly; a multiplexed round past ackIndexMin
// trackers resolves through the digest index instead, turning the per-ACK
// cost from O(instances) to O(1).
func (p *Peer) handleAck(src wire.NodeID, ack *wire.Message) {
	if !ack.HasValue {
		// Frame-cumulative ACK: Seq names a sealed frame this peer sent
		// to src (channel.FrameTag); one bit in the window's shared
		// frameGroup credits every tracker whose message the frame
		// carried. The key binds the crediting peer, so only the frame's
		// actual recipient can credit it.
		if fg, ok := p.frameIdx[frameKey{dst: src, round: ack.Round, tag: ack.Seq}]; ok {
			for g := fg; g != nil; g = g.next {
				g.acked.set(src)
			}
		}
		return
	}
	if len(p.trackers) > ackIndexMin {
		if tk, ok := p.trackerIdx[ackKey{round: ack.Round, digest: ack.Value}]; ok {
			tk.acked.set(src)
		}
		return
	}
	for _, tk := range p.trackers {
		if tk.round == ack.Round && tk.digest == ack.Value {
			tk.acked.set(src)
			return
		}
	}
}

// Setup performs the one-time setup phase for a set of peers living in the
// same simulation: it distributes every peer's enclave-drawn initial
// sequence number to all others. This models the O(N^2) secure exchange of
// Section 4.1 — byzantine nodes cannot misreport their sequence number
// because it is drawn and sent by enclave code over the blinded channel.
func Setup(peers []*Peer) error {
	seqs := make([]uint64, len(peers))
	for i, p := range peers {
		if p == nil {
			return fmt.Errorf("runtime: nil peer %d in setup", i)
		}
		s, err := p.InitialSeq()
		if err != nil {
			return fmt.Errorf("runtime: peer %d initial seq: %w", i, err)
		}
		seqs[i] = s
	}
	for i, p := range peers {
		if err := p.InstallSeqs(seqs); err != nil {
			return fmt.Errorf("runtime: peer %d install seqs: %w", i, err)
		}
	}
	return nil
}
