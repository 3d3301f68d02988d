package baseline

import (
	"time"

	"sgxp2p/internal/wire"
)

// earlyState is the three-valued state of Algorithm 5: unknown ("?"),
// bottom, or a concrete value.
type earlyState int

const (
	stateUnknown earlyState = iota
	stateBottom
	stateValue
)

// earlyStateByte encodes the state into Value[0] when HasValue is false.
const (
	earlyByteUnknown byte = 0
	earlyByteBottom  byte = 1
)

// RBearlyResult is the outcome of an RBearly run at one node.
type RBearlyResult struct {
	Accepted bool
	Value    wire.Value
	Round    uint32
	At       time.Duration
}

// RBearly is the early-stopping reliable broadcast of Algorithm 5
// (Appendix B.2), the Perry-Toueg protocol for the general-omission
// model: every node announces its current state every round, silent nodes
// accumulate in the QUIET set, and a node decides bottom once the round
// number exceeds |QUIET| — terminating in min{f+2, t+1} rounds at the
// cost of O(N^3) communication. The paper's Appendix B.2 uses it to show
// where the halt-on-divergence property saves a factor N.
type RBearly struct {
	peer      *Peer
	initiator wire.NodeID
	input     *wire.Value

	state     earlyState
	value     wire.Value
	quiet     map[wire.NodeID]bool
	heardThis map[wire.NodeID]bool // senders heard during the current round
	gotValue  *wire.Value          // value received during the current round
	decided   bool
	halted    bool
	result    RBearlyResult
}

var _ Proto = (*RBearly)(nil)

// NewRBearly builds the protocol for one initiator's broadcast.
func NewRBearly(peer *Peer, initiator wire.NodeID) *RBearly {
	return &RBearly{
		peer:      peer,
		initiator: initiator,
		quiet:     make(map[wire.NodeID]bool, peer.N()),
		heardThis: make(map[wire.NodeID]bool, peer.N()),
	}
}

// SetInput provides the initiator's value.
func (r *RBearly) SetInput(v wire.Value) { r.input = &v }

// Rounds returns the protocol length: t+1.
func (r *RBearly) Rounds() int { return r.peer.T() + 1 }

// Result returns the node's decision.
func (r *RBearly) Result() (RBearlyResult, bool) { return r.result, r.decided }

// OnRound implements Proto.
func (r *RBearly) OnRound(rnd uint32) {
	if r.halted {
		return
	}
	if rnd == 1 {
		if r.peer.ID() == r.initiator {
			if r.input == nil {
				r.halted = true
				return
			}
			// The initiator multicasts m, accepts it and halts.
			r.value = *r.input
			r.state = stateValue
			r.decide(true, r.value, rnd)
			r.broadcastState(rnd)
			r.halted = true
			return
		}
		// Non-initiators announce "?" so QUIET tracking starts immediately.
		r.broadcastState(rnd)
		return
	}

	// Close out the previous round: who stayed silent, what arrived.
	for id := 0; id < r.peer.N(); id++ {
		nid := wire.NodeID(id)
		if nid == r.peer.ID() {
			continue
		}
		if !r.heardThis[nid] {
			r.quiet[nid] = true
		}
	}
	r.heardThis = make(map[wire.NodeID]bool, r.peer.N())

	if r.state == stateUnknown {
		if r.gotValue != nil {
			r.value = *r.gotValue
			r.state = stateValue
			r.decide(true, r.value, rnd)
			r.broadcastState(rnd)
			r.halted = true
			return
		}
		if int(rnd) > len(r.quiet) {
			r.state = stateBottom
			r.decide(false, wire.Value{}, rnd)
			r.broadcastState(rnd)
			r.halted = true
			return
		}
	}
	r.broadcastState(rnd)
}

// broadcastState announces the node's current state to everyone — the
// every-round liveness broadcast that makes the protocol O(N^3).
func (r *RBearly) broadcastState(rnd uint32) {
	msg := &wire.Message{
		Type:      wire.TypeEarlyValue,
		Sender:    r.peer.ID(),
		Initiator: r.initiator,
		Round:     rnd,
	}
	switch r.state {
	case stateValue:
		msg.HasValue = true
		msg.Value = r.value
	case stateBottom:
		msg.Value[0] = earlyByteBottom
	default:
		msg.Value[0] = earlyByteUnknown
	}
	_ = r.peer.Multicast(nil, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
}

// OnMessage implements Proto: record liveness and any concrete value.
func (r *RBearly) OnMessage(src wire.NodeID, msg *wire.Message) {
	if msg.Type != wire.TypeEarlyValue || msg.Initiator != r.initiator || r.halted {
		return
	}
	r.heardThis[src] = true
	if msg.HasValue && r.gotValue == nil {
		v := msg.Value
		r.gotValue = &v
	}
}

// OnFinish implements Proto: anything still undecided is bottom.
func (r *RBearly) OnFinish() {
	if r.decided {
		return
	}
	r.decide(false, wire.Value{}, r.peer.Round())
}

func (r *RBearly) decide(accepted bool, v wire.Value, rnd uint32) {
	if r.decided {
		return
	}
	r.decided = true
	r.result = RBearlyResult{
		Accepted: accepted,
		Value:    v,
		Round:    rnd,
		At:       r.peer.Now(),
	}
}
