package erng

import (
	"errors"
	"fmt"
	"time"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Result is the outcome of an ERNG run at one node.
type Result struct {
	// OK is false when the protocol output bottom (no contribution was
	// accepted — only possible when every initiator failed).
	OK bool
	// Value is the common unbiased random number r.
	Value wire.Value
	// Contributors lists the initiators whose values entered Sfinal, in
	// ascending id order.
	Contributors []wire.NodeID
	// Round is the lockstep round of the decision; At its virtual time.
	Round uint32
	At    time.Duration
}

// Basic is the unoptimized ERNG of Algorithm 3: one concurrent ERB
// instance per node, XOR of the accepted set. It implements
// runtime.Protocol.
type Basic struct {
	peer       runtime.Host
	t          int
	startRound uint32
	eng        *erb.Engine
	decided    bool
	result     Result
}

var _ runtime.Protocol = (*Basic)(nil)

// NewBasic builds the unoptimized ERNG for a network tolerating t < N/2.
// The node's random contribution is drawn inside the enclave (F2) at
// round 1 — the OS never observes it before it is committed (P3).
func NewBasic(peer runtime.Host, t int) (*Basic, error) {
	return NewBasicAt(peer, t, 1)
}

// NewBasicAt is NewBasic with an explicit start round: the embedded ERB
// launches (and the enclave contribution is drawn) at startRound instead
// of round 1. A multiplexed instance passes its admission round, so the
// same protocol runs at any offset of the shared lockstep schedule.
func NewBasicAt(peer runtime.Host, t int, startRound uint32) (*Basic, error) {
	if peer == nil {
		return nil, errors.New("erng: nil peer")
	}
	if startRound == 0 {
		startRound = 1
	}
	all := make([]wire.NodeID, peer.N())
	for i := range all {
		all[i] = wire.NodeID(i)
	}
	eng, err := erb.NewEngine(peer, erb.Config{
		T:                  t,
		StartRound:         startRound,
		ExpectedInitiators: all,
	})
	if err != nil {
		return nil, fmt.Errorf("erng: embedded ERB: %w", err)
	}
	return &Basic{peer: peer, t: t, startRound: startRound, eng: eng}, nil
}

// Rounds returns the last lockstep round the protocol needs (its start
// round plus t+1; t+2 total from a round-1 start).
func (b *Basic) Rounds() int { return b.eng.Rounds() }

// Result returns the node's decision once the protocol finished.
func (b *Basic) Result() (Result, bool) {
	return b.result, b.decided
}

// OnRound implements runtime.Protocol.
func (b *Basic) OnRound(rnd uint32) {
	if rnd == b.startRound {
		v, err := b.peer.Enclave().RandomValue()
		if err != nil {
			// Halted enclave: nothing to contribute.
			return
		}
		b.eng.SetInput(v)
	}
	b.eng.OnRound(rnd)
	b.maybeFinishEarly()
}

// OnMessage implements runtime.Protocol.
func (b *Basic) OnMessage(msg *wire.Message) {
	b.eng.OnMessage(msg)
	b.maybeFinishEarly()
}

// maybeFinishEarly folds the set as soon as every instance has accepted a
// value: the set can only shrink to bottom entries after this point, never
// change, so the fold is already final. This is the early stopping the
// paper's evaluation exhibits (Fig. 2b is flat while the network is
// honest); when any instance is still open the node waits for the t+2
// deadline as in Algorithm 3. Every contribution was committed in round 1
// inside enclaves, so deciding early gives the adversary no look-ahead.
func (b *Basic) maybeFinishEarly() {
	if b.decided || b.eng.AcceptedCount() != b.peer.N() {
		return
	}
	b.result = foldSet(accepted(b.eng), b.peer.Round(), b.peer.Now())
	b.decided = true
	b.peer.Trace(telemetry.KindDecide, wire.NoNode, uint64(len(b.result.Contributors)))
}

// OnFinish implements runtime.Protocol: fold the accepted set.
func (b *Basic) OnFinish() {
	b.eng.OnFinish()
	if b.decided {
		return
	}
	b.result = foldSet(accepted(b.eng), b.peer.Round(), b.peer.Now())
	b.decided = true
	b.peer.Trace(telemetry.KindDecide, wire.NoNode, uint64(len(b.result.Contributors)))
}

// accepted is an ERB engine's accepted set in canonical (ascending
// initiator) order, the set both ERNGs fold.
func accepted(eng *erb.Engine) []wire.SetEntry {
	return eng.AppendAccepted(make([]wire.SetEntry, 0, eng.AcceptedCount()))
}

// foldSet XORs a canonical set into a Result.
func foldSet(set []wire.SetEntry, rnd uint32, at time.Duration) Result {
	res := Result{Round: rnd, At: at}
	if len(set) == 0 {
		return res
	}
	res.OK = true
	res.Contributors = make([]wire.NodeID, len(set))
	for i, e := range set {
		res.Contributors[i] = e.Initiator
		res.Value = res.Value.XOR(e.Value)
	}
	return res
}
