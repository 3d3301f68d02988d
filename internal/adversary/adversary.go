// Package adversary implements the byzantine operating system: the
// untrusted layer below the enclave that owns the network. Every node of
// a simulated deployment runs on one OS (deploy.Deployment.OS), honest
// until a Behavior is Set on it.
//
// Its capabilities mirror the paper's attack taxonomy (Section 2.3):
//
//	A1 execution deviation — impossible below the channel: the OS cannot
//	   run modified protocol code whose messages honest enclaves accept
//	   (measurement-bound keys); it can only inject garbage, which fails
//	   authentication. InjectForged models the attempt.
//	A2 message forgery — CorruptEverything / InjectForged flip or invent
//	   envelope bytes; the channel rejects them (tested to reduce to
//	   omissions).
//	A3 selective omission — OmitAll, OmitEven, OmitTo, OmitProbabilistic,
//	   Chain. Content-based omission is structurally impossible: the OS
//	   decides from the destination alone, never the plaintext (P3).
//	A4 message delay — DelayAll holds envelopes and releases them later;
//	   lockstep round stamps (P5) turn late deliveries into omissions.
//	A5 message replay — a Record OS keeps a tape of the envelopes it has
//	   carried and can replay it at any time; sequence numbers (P6) and
//	   round stamps make replays reduce to omissions.
//
// A Behavior is a value: it prints as its schedule label (String) and
// reads back (ParseBehavior), and every OS builds its own state — rng,
// epoch coin — from it on Set, so one value may configure many nodes.
package adversary

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"strconv"
	"strings"
	"time"

	"sgxp2p/internal/keyed"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// kind enumerates the behaviours.
type kind uint8

const (
	honest kind = iota
	omitAll
	omitEven
	delayAll
	corruptAll
	record
	omitTo
	onlyTo
	omitP
	epochP
)

// labels names every kind as String prints it; the kinds from omitTo on
// carry arguments in parentheses.
var labels = [...]string{"honest", "omit-all", "omit-even", "delay-all", "corrupt-all", "record",
	"omit-to", "only-to", "omit-p", "epoch-p"}

// Behavior is what a byzantine OS does with the envelopes its node sends.
// The zero value is honest.
type Behavior struct {
	kind kind
	ids  []wire.NodeID // omit-to: the destinations, sorted; only-to: the one
	p    float64       // omit-p, epoch-p
	seed int64         // omit-p, epoch-p
}

// OmitAll drops every outbound envelope.
func OmitAll() Behavior { return Behavior{kind: omitAll} }

// OmitEven drops envelopes to even-numbered destinations.
func OmitEven() Behavior { return Behavior{kind: omitEven} }

// DelayAll holds every outbound envelope for later Release (A4).
func DelayAll() Behavior { return Behavior{kind: delayAll} }

// CorruptEverything flips one bit of every outbound envelope (A2).
func CorruptEverything() Behavior { return Behavior{kind: corruptAll} }

// Record is honest, and keeps a tape of what the OS sends for ReplayTape
// (A5).
func Record() Behavior { return Behavior{kind: record} }

// OmitTo drops envelopes to the given destinations (identity-based
// selective omission, A3).
func OmitTo(dsts ...wire.NodeID) Behavior {
	ids := slices.Clone(dsts)
	slices.Sort(ids)
	return Behavior{kind: omitTo, ids: slices.Compact(ids)}
}

// OmitProbabilistic drops each envelope independently with probability p,
// by a coin seeded with seed.
func OmitProbabilistic(p float64, seed int64) Behavior {
	return Behavior{kind: omitP, p: p, seed: seed}
}

// MisbehaveWithProbability omits every envelope of an epoch with
// probability p and is honest otherwise — the activation model of
// Theorems D.1/D.2. The coin, seeded with seed, is drawn on Set and at
// every OS.NewEpoch.
func MisbehaveWithProbability(p float64, seed int64) Behavior {
	return Behavior{kind: epochP, p: p, seed: seed}
}

// Chain implements the worst-case strategy of Section 6.3: each byzantine
// node forwards only to the next byzantine node in the chain (getting
// itself eliminated by P4), delaying honest acceptance to ~f+2 rounds. The
// last chain member releases to the designated honest node.
//
// self is the position of this node within chain; release is the honest
// node the final member forwards to.
func Chain(chain []wire.NodeID, self int, release wire.NodeID) Behavior {
	next := release
	if self+1 < len(chain) {
		next = chain[self+1]
	}
	return Behavior{kind: onlyTo, ids: []wire.NodeID{next}}
}

// String is the behaviour's schedule label, e.g. "omit-all",
// "omit-to(0,2)" or "omit-p(0.5,99)"; ParseBehavior reads it back.
func (b Behavior) String() string {
	switch b.kind {
	case omitTo, onlyTo:
		ids := make([]string, len(b.ids))
		for i, id := range b.ids {
			ids[i] = strconv.FormatUint(uint64(id), 10)
		}
		return labels[b.kind] + "(" + strings.Join(ids, ",") + ")"
	case omitP, epochP:
		return fmt.Sprintf("%s(%s,%d)", labels[b.kind], strconv.FormatFloat(b.p, 'g', -1, 64), b.seed)
	}
	return labels[b.kind]
}

// ParseBehavior reads a behaviour back from its String form.
func ParseBehavior(text string) (Behavior, error) {
	name, args, hasArgs := strings.Cut(text, "(")
	args, closed := strings.CutSuffix(args, ")")
	b := Behavior{kind: kind(slices.Index(labels[:], name))}
	ok := b.kind <= epochP && hasArgs == (b.kind >= omitTo) && closed == hasArgs
	switch {
	case !ok:
	case b.kind >= omitP:
		ps, ss, _ := strings.Cut(args, ",")
		var perr, serr error
		b.p, perr = strconv.ParseFloat(ps, 64)
		b.seed, serr = strconv.ParseInt(ss, 10, 64)
		ok = perr == nil && serr == nil
	case b.kind >= omitTo && (args != "" || b.kind == onlyTo):
		for _, f := range strings.Split(args, ",") {
			id, err := strconv.ParseUint(f, 10, 32)
			ok = ok && err == nil
			b.ids = append(b.ids, wire.NodeID(id))
		}
	}
	if b.kind == omitTo {
		b = OmitTo(b.ids...)
	}
	if !ok || b.kind == onlyTo && len(b.ids) != 1 {
		return Behavior{}, fmt.Errorf("adversary: unknown behavior %q", text)
	}
	return b, nil
}

// Stats counts what the byzantine OS did.
type Stats struct {
	Delivered uint64
	Dropped   uint64
	Held      uint64
	Corrupted uint64
	Replayed  uint64
	Forged    uint64
	// Cut counts envelopes an active partition stopped, sent or received.
	Cut uint64
}

// envelope is a held or recorded envelope.
type envelope struct {
	dst     wire.NodeID
	payload []byte
}

// maxTape bounds a Record OS's tape.
const maxTape = 4096

// OS is one node's operating system: it sits between the node's peer
// runtime and the network and satisfies runtime.Transport. It holds only
// its node's state, so it runs on the node's lane; the methods called
// from outside — Set, NewEpoch, Partition, Release, Drain, ReplayTape,
// InjectForged — belong between runs or in an event that fires alone.
type OS struct {
	id      wire.NodeID
	inner   runtime.Transport
	handler func(src wire.NodeID, payload []byte)
	seed    int64
	src     *rand.ChaCha8 // corruption bits, drain coins, forged bytes; keyed on first use
	rng     *rand.Rand    // src, for bounded draws
	b       Behavior
	coin    *rand.Rand // the behaviour's own draws (omit-p, epoch-p)
	active  bool       // epoch-p: misbehaving this epoch; false for every other kind
	held    []envelope
	tape    []envelope
	// group is the active partition, node → group, shared read-only by
	// every OS of the deployment; nil while the network is whole.
	group []int
	stats Stats
}

var _ runtime.Transport = (*OS)(nil)

// Wrap builds node id's OS around a genuine transport with behaviour b,
// in a deployment seeded with seed (New).
func Wrap(id wire.NodeID, inner runtime.Transport, b Behavior, seed int64) *OS {
	o := New(id, inner, seed)
	o.Set(b)
	return o
}

// New builds node id's OS in a deployment seeded with seed: honest, its
// own draws (corruption bits, drain coins, forged bytes) the keyed stream
// (seed, keyed.OS, id).
func New(id wire.NodeID, inner runtime.Transport, seed int64) *OS {
	return &OS{id: id, inner: inner, seed: seed}
}

// Set switches the OS to behaviour b, building b's state afresh: the
// epoch coin of MisbehaveWithProbability makes its first draw here. What
// the OS holds and its tape stay.
func (o *OS) Set(b Behavior) {
	o.b, o.coin, o.active = b, nil, false
	if b.kind == omitP || b.kind == epochP {
		o.coin = rand.New(keyed.Stream(b.seed, keyed.Coin, 0))
		o.NewEpoch(0)
	}
}

// NewEpoch re-rolls an epoch-p behaviour's coin at an instance boundary.
func (o *OS) NewEpoch(uint32) {
	if o.b.kind == epochP {
		o.active = o.coin.Float64() < o.b.p
	}
}

// Partition installs the network's partition, group[i] being node i's
// side, or heals it with nil. A node outside the map is unreachable.
func (o *OS) Partition(group []int) {
	o.group = group
	if o.handler != nil {
		o.install()
	}
}

// ID returns the node's id.
func (o *OS) ID() wire.NodeID { return o.id }

// Stats returns a snapshot of the OS's activity counters.
func (o *OS) Stats() Stats { return o.stats }

// drops reports whether the behaviour omits an envelope to dst.
func (o *OS) drops(dst wire.NodeID) bool {
	switch o.b.kind {
	case omitAll:
		return true
	case omitEven:
		return dst%2 == 0
	case omitTo:
		_, found := slices.BinarySearch(o.b.ids, dst)
		return found
	case onlyTo:
		return dst != o.b.ids[0]
	case omitP:
		return o.coin.Float64() < o.b.p
	}
	return o.active
}

// Send implements runtime.Transport, applying the behaviour.
func (o *OS) Send(dst wire.NodeID, payload []byte) {
	if o.b.kind == record && len(o.tape) < maxTape {
		o.tape = append(o.tape, envelope{dst: dst, payload: append([]byte(nil), payload...)})
	}
	switch {
	case o.drops(dst):
		o.stats.Dropped++
	case o.b.kind == delayAll:
		o.stats.Held++
		// The runtime reuses its seal buffer after Send returns, so a
		// held envelope must own its bytes.
		o.held = append(o.held, envelope{dst: dst, payload: append([]byte(nil), payload...)})
	case o.b.kind == corruptAll:
		o.stats.Corrupted++
		bad := append([]byte(nil), payload...)
		if len(bad) > 0 {
			i := o.rand().IntN(len(bad))
			bad[i] ^= 1 << uint(o.rand().IntN(8))
		}
		o.transmit(dst, bad)
	default:
		o.stats.Delivered++
		o.transmit(dst, payload)
	}
}

// rand returns the OS's own rng, keying it on first use.
func (o *OS) rand() *rand.Rand {
	if o.rng == nil {
		o.src = keyed.Stream(o.seed, keyed.OS, uint64(o.id))
		o.rng = rand.New(o.src)
	}
	return o.rng
}

// cut reports whether an active partition separates a and b.
func (o *OS) cut(a, b wire.NodeID) bool {
	g := o.group
	if g == nil {
		return false
	}
	return int(a) >= len(g) || int(b) >= len(g) || g[a] != g[b]
}

// transmit hands an envelope to the network unless a partition cuts its
// link: the cut is physics, below every hold and release.
func (o *OS) transmit(dst wire.NodeID, payload []byte) {
	if o.cut(o.id, dst) {
		o.stats.Cut++
		return
	}
	o.inner.Send(dst, payload)
}

// Release delivers all held envelopes now — the second half of the delay
// attack A4. Receivers' lockstep checks will discard them.
func (o *OS) Release() {
	held := o.held
	o.held = nil
	for _, h := range held {
		o.stats.Delivered++
		o.transmit(h.dst, h.payload)
	}
}

// HeldCount returns how many envelopes are currently held.
func (o *OS) HeldCount() int { return len(o.held) }

// Drain disposes of every held envelope at teardown: each one is released
// or discarded by a coin from the OS's own seeded rng, so teardown under
// the same seed produces the same release/discard sequence and
// delayed-delivery runs are replayable bit-for-bit. Released envelopes
// carry stale round stamps, so receivers discard them (P5).
func (o *OS) Drain() (released, discarded int) {
	held := o.held
	o.held = nil
	for _, h := range held {
		if o.rand().IntN(2) == 0 {
			o.stats.Delivered++
			o.transmit(h.dst, h.payload)
			released++
		} else {
			o.stats.Dropped++
			discarded++
		}
	}
	return released, discarded
}

// ReplayTape re-sends every recorded envelope to its original destination
// (attack A5). Returns the number replayed.
func (o *OS) ReplayTape() int {
	for _, c := range o.tape {
		o.stats.Replayed++
		o.transmit(c.dst, append([]byte(nil), c.payload...))
	}
	return len(o.tape)
}

// InjectForged sends size bytes of OS-chosen garbage to dst — the best
// available approximation of message forgery (A2) without enclave keys.
func (o *OS) InjectForged(dst wire.NodeID, size int) {
	buf := make([]byte, size)
	o.rand()
	o.src.Read(buf) // ChaCha8.Read fills buf and never fails
	o.stats.Forged++
	o.transmit(dst, buf)
}

// SetHandler implements runtime.Transport.
func (o *OS) SetHandler(h func(src wire.NodeID, payload []byte)) {
	o.handler = h
	o.install()
}

// install registers the node's handler with the network: directly while
// the network is whole, behind a cut check while a partition is active,
// so that an envelope in flight when the partition starts does not leak
// through it.
func (o *OS) install() {
	h := o.handler
	if o.group == nil {
		o.inner.SetHandler(h)
		return
	}
	o.inner.SetHandler(func(src wire.NodeID, payload []byte) {
		if o.cut(src, o.id) {
			o.stats.Cut++
			return
		}
		h(src, payload)
	})
}

// Detach implements runtime.Transport.
func (o *OS) Detach() { o.inner.Detach() }

// After implements runtime.Transport.
func (o *OS) After(d time.Duration, fn func()) { o.inner.After(d, fn) }

// Now implements runtime.Transport.
func (o *OS) Now() time.Duration { return o.inner.Now() }
