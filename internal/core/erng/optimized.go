package erng

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sort"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Optimized is the cluster-sampled ERNG of Algorithm 6. It implements
// runtime.Protocol. The schedule is
//
//	round 1            cluster selection: private draw, CHOSEN multicast
//	round 2            second draw; chosen initiators start cluster ERB
//	rounds 2..T_c+3    embedded ERB window inside the cluster
//	round T_c+4        cluster members multicast FINAL(M_i) to everyone;
//	                   all nodes accept the majority set and XOR it
//
// where T_c = Params.MaxClusterT (gamma in the paper's notation).
type Optimized struct {
	peer   runtime.Host
	params Params

	chosen   bool
	schosen  map[wire.NodeID]bool
	eng      *erb.Engine // nil for non-cluster nodes
	finalSet map[[32]byte]*finalTally
	decided  bool
	result   Result
}

// finalTally counts identical FINAL sets by content hash.
type finalTally struct {
	set     []wire.SetEntry
	senders map[wire.NodeID]bool
}

var _ runtime.Protocol = (*Optimized)(nil)

// NewOptimized builds the optimized ERNG for a network tolerating
// t <= N/3. Use ResolveParams (or the zero Mode for auto) to pick the
// sampling parameters.
func NewOptimized(peer runtime.Host, t int, mode Mode, gammaOverride int) (*Optimized, error) {
	if peer == nil {
		return nil, errors.New("erng: nil peer")
	}
	params, err := ResolveParams(peer.N(), t, mode, gammaOverride)
	if err != nil {
		return nil, err
	}
	return &Optimized{
		peer:     peer,
		params:   params,
		schosen:  make(map[wire.NodeID]bool),
		finalSet: make(map[[32]byte]*finalTally),
	}, nil
}

// Params returns the resolved sampling parameters.
func (o *Optimized) Params() Params { return o.params }

// Rounds returns the total lockstep rounds.
func (o *Optimized) Rounds() int { return o.params.Rounds() }

// Result returns the node's decision once the protocol finished.
func (o *Optimized) Result() (Result, bool) { return o.result, o.decided }

// ClusterView returns this node's view of the representative cluster
// (sorted), for tests and experiments.
func (o *Optimized) ClusterView() []wire.NodeID {
	return sortedIDs(o.schosen)
}

// Chosen reports whether this node joined the cluster.
func (o *Optimized) Chosen() bool { return o.chosen }

// OnRound implements runtime.Protocol.
func (o *Optimized) OnRound(rnd uint32) {
	switch {
	case rnd == 1:
		o.selectionPhase(rnd)
	case rnd == 2:
		o.startClusterERB(rnd)
	case int(rnd) == o.Rounds():
		o.finalPhase(rnd)
	default:
		if o.eng != nil {
			o.eng.OnRound(rnd)
		}
	}
}

// selectionPhase is round 1 of Algorithm 6: draw privately inside the
// enclave (P3: the OS learns membership only when CHOSEN is multicast,
// never the draw itself) and announce membership.
func (o *Optimized) selectionPhase(rnd uint32) {
	draw, err := o.peer.Enclave().RandomBelow(o.params.JoinRange)
	if err != nil {
		return
	}
	if !o.params.joined(draw) {
		return
	}
	o.chosen = true
	o.schosen[o.peer.ID()] = true
	o.peer.Trace(telemetry.KindChosen, wire.NoNode, 0)
	msg := &wire.Message{
		Type:      wire.TypeChosen,
		Sender:    o.peer.ID(),
		Initiator: o.peer.ID(),
		Instance:  o.peer.Instance(),
		Seq:       o.peer.SeqOf(o.peer.ID()),
		Round:     rnd,
	}
	_ = o.peer.Multicast(nil, msg, 0) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
}

// startClusterERB is round 2: cluster members build the embedded ERB
// engine over their view of Schosen, draw the second-cluster lottery and
// initiate if selected.
func (o *Optimized) startClusterERB(rnd uint32) {
	if !o.chosen {
		return
	}
	members := sortedIDs(o.schosen)
	if len(members) < 2 {
		return // degenerate cluster; the run will output bottom
	}
	tc := (len(members) - 1) / 2
	if tc > o.params.MaxClusterT {
		tc = o.params.MaxClusterT
	}
	eng, err := erb.NewEngine(o.peer, erb.Config{
		Members:    members,
		T:          tc,
		StartRound: 2,
	})
	if err != nil {
		return
	}
	o.eng = eng
	o.peer.Trace(telemetry.KindCluster, wire.NoNode, uint64(len(members)))
	draw, err := o.peer.Enclave().RandomBelow(o.params.InitRange)
	if err != nil {
		return
	}
	if draw == 0 {
		v, err := o.peer.Enclave().RandomValue()
		if err != nil {
			return
		}
		o.eng.SetInput(v)
	}
	o.eng.OnRound(rnd)
}

// finalPhase is the last round: cluster members snapshot their agreed set
// M_i and multicast FINAL to the whole network.
func (o *Optimized) finalPhase(rnd uint32) {
	if o.eng != nil {
		o.eng.OnRound(rnd) // finalizes any still-open instances to bottom
		set := acceptedSet(o.eng.Results())
		msg := &wire.Message{
			Type:      wire.TypeFinal,
			Sender:    o.peer.ID(),
			Initiator: o.peer.ID(),
			Instance:  o.peer.Instance(),
			Seq:       o.peer.SeqOf(o.peer.ID()),
			Round:     rnd,
			Set:       set,
		}
		_ = o.peer.Multicast(nil, msg, 0) //lint:allow droperr a halted sender's tally is discarded along with the node; self-tally below is then moot
		// The sender counts its own set toward the tally.
		o.tallyFinal(o.peer.ID(), set, rnd)
	}
}

// OnMessage implements runtime.Protocol.
func (o *Optimized) OnMessage(msg *wire.Message) {
	if msg.Instance != o.peer.Instance() {
		return
	}
	switch msg.Type {
	case wire.TypeChosen:
		o.onChosen(msg)
	case wire.TypeInit, wire.TypeEcho:
		if o.eng != nil {
			o.eng.OnMessage(msg)
		}
	case wire.TypeFinal:
		o.onFinal(msg)
	default:
	}
}

// onChosen records a cluster membership announcement (round 1 only).
func (o *Optimized) onChosen(msg *wire.Message) {
	if msg.Round != 1 || msg.Sender != msg.Initiator {
		return
	}
	if msg.Seq != o.peer.SeqOf(msg.Sender) {
		return // replay (P6)
	}
	o.schosen[msg.Sender] = true
}

// onFinal records a FINAL set from a cluster member and decides when a
// majority of the (locally observed) cluster sent the identical set.
func (o *Optimized) onFinal(msg *wire.Message) {
	if int(msg.Round) != o.Rounds() || msg.Sender != msg.Initiator {
		return
	}
	if msg.Seq != o.peer.SeqOf(msg.Sender) {
		return // replay (P6)
	}
	if !o.schosen[msg.Sender] {
		return // FINAL from outside the observed cluster
	}
	o.tallyFinal(msg.Sender, msg.Set, msg.Round)
}

// tallyFinal counts one sender's set and decides on majority agreement.
func (o *Optimized) tallyFinal(sender wire.NodeID, set []wire.SetEntry, rnd uint32) {
	if o.decided {
		return
	}
	key := hashSet(set)
	tally, ok := o.finalSet[key]
	if !ok {
		tally = &finalTally{
			set:     append([]wire.SetEntry(nil), set...),
			senders: make(map[wire.NodeID]bool),
		}
		o.finalSet[key] = tally
	}
	tally.senders[sender] = true
	if len(tally.senders) >= o.finalThreshold() {
		o.result = foldSet(tally.set, rnd, o.peer.Now())
		o.decided = true
		o.peer.Trace(telemetry.KindDecide, wire.NoNode, uint64(len(o.result.Contributors)))
	}
}

// finalThreshold is the number of identical FINAL sets required: a
// majority of the locally observed cluster. With more than gamma honest
// and fewer than gamma byzantine members (Lemma F.1) the honest common
// set always reaches it.
func (o *Optimized) finalThreshold() int {
	return len(o.schosen)/2 + 1
}

// OnFinish implements runtime.Protocol.
func (o *Optimized) OnFinish() {
	if o.eng != nil {
		o.eng.OnFinish()
	}
	if !o.decided {
		o.result = Result{Round: uint32(o.Rounds()), At: o.peer.Now()}
		o.decided = true
		o.peer.Trace(telemetry.KindDecide, wire.NoNode, 0)
	}
}

// hashSet computes the canonical content hash of a FINAL set.
func hashSet(set []wire.SetEntry) [32]byte {
	h := sha256.New()
	var buf [4 + wire.ValueSize]byte
	for _, e := range set {
		buf[0] = byte(e.Initiator)
		buf[1] = byte(e.Initiator >> 8)
		buf[2] = byte(e.Initiator >> 16)
		buf[3] = byte(e.Initiator >> 24)
		copy(buf[4:], e.Value[:])
		h.Write(buf[:])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

// sortedIDs returns the keys of a node set in ascending order.
func sortedIDs(set map[wire.NodeID]bool) []wire.NodeID {
	out := make([]wire.NodeID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String implements fmt.Stringer for debugging.
func (o *Optimized) String() string {
	return fmt.Sprintf("erng.Optimized{chosen=%v cluster=%d decided=%v}", o.chosen, len(o.schosen), o.decided)
}
