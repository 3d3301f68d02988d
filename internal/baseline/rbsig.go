package baseline

import (
	"encoding/binary"
	"time"

	"sgxp2p/internal/wire"
)

// RBsigResult is the outcome of an RBsig instance at one node.
type RBsigResult struct {
	// Accepted is false when the node output bottom (initiator silent or
	// caught equivocating).
	Accepted bool
	Value    wire.Value
	Round    uint32
	At       time.Duration
}

// RBsig is the signature-chain reliable broadcast of Algorithm 4
// (Appendix B.1), in the byzantine model with a pre-established PKI: a
// value is valid in round r only when it carries r distinct signatures
// starting with the initiator's. Every newly seen value is re-signed and
// relayed, giving O(N^3) communication; after t+1 rounds a node accepts
// the unique value seen, or bottom if zero or several.
//
// One RBsig tracks a single initiator's broadcast; SigRNG composes N of
// them.
type RBsig struct {
	peer      *Peer
	initiator wire.NodeID
	input     *wire.Value

	seen    map[wire.Value][]wire.SigEntry // value -> first valid chain
	relayQ  []*wire.Message                // relays queued for next round
	decided bool
	result  RBsigResult
}

var _ Proto = (*RBsig)(nil)

// NewRBsig builds the protocol for one initiator's broadcast.
func NewRBsig(peer *Peer, initiator wire.NodeID) *RBsig {
	return &RBsig{
		peer:      peer,
		initiator: initiator,
		seen:      make(map[wire.Value][]wire.SigEntry, 2),
	}
}

// SetInput provides the initiator's value.
func (r *RBsig) SetInput(v wire.Value) { r.input = &v }

// Rounds returns the protocol length: t+1.
func (r *RBsig) Rounds() int { return r.peer.T() + 1 }

// Result returns the node's decision.
func (r *RBsig) Result() (RBsigResult, bool) { return r.result, r.decided }

// ChainBody returns the byte string signer k signs: the initiator, the
// value, and the chain accumulated so far. Exported for attack protocols
// in tests and the bias experiment.
func ChainBody(initiator wire.NodeID, v wire.Value, chain []wire.SigEntry) []byte {
	body := make([]byte, 0, 8+wire.ValueSize+len(chain)*80)
	body = append(body, "rbsig/"...)
	body = binary.LittleEndian.AppendUint32(body, uint32(initiator))
	body = append(body, v[:]...)
	for _, e := range chain {
		body = binary.LittleEndian.AppendUint32(body, uint32(e.Signer))
		body = append(body, e.Signature...)
	}
	return body
}

// OnRound implements Proto.
func (r *RBsig) OnRound(rnd uint32) {
	// Flush relays queued during the previous round.
	relays := r.relayQ
	r.relayQ = nil
	for _, msg := range relays {
		msg.Round = rnd
		r.multicastOutsideChain(msg)
	}
	if rnd == 1 && r.peer.ID() == r.initiator && r.input != nil {
		v := *r.input
		sig, err := r.peer.Sign(ChainBody(r.initiator, v, nil))
		if err != nil {
			return
		}
		msg := &wire.Message{
			Type:      wire.TypeSigRelay,
			Sender:    r.peer.ID(),
			Initiator: r.initiator,
			Round:     rnd,
			HasValue:  true,
			Value:     v,
			Sigs:      []wire.SigEntry{{Signer: r.initiator, Signature: sig}},
		}
		r.seen[v] = msg.Sigs
		_ = r.peer.Multicast(nil, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
	}
}

// multicastOutsideChain relays to every node that has not already signed.
func (r *RBsig) multicastOutsideChain(msg *wire.Message) {
	inChain := make(map[wire.NodeID]bool, len(msg.Sigs))
	for _, e := range msg.Sigs {
		inChain[e.Signer] = true
	}
	var dsts []wire.NodeID
	for id := 0; id < r.peer.N(); id++ {
		nid := wire.NodeID(id)
		if nid == r.peer.ID() || inChain[nid] {
			continue
		}
		dsts = append(dsts, nid)
	}
	_ = r.peer.Multicast(dsts, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
}

// OnMessage implements Proto: verify the chain, record new values, queue a
// re-signed relay.
func (r *RBsig) OnMessage(src wire.NodeID, msg *wire.Message) {
	if msg.Type != wire.TypeSigRelay || msg.Initiator != r.initiator || !msg.HasValue {
		return
	}
	rnd := r.peer.Round()
	if !r.validChain(msg, rnd) {
		return
	}
	if _, ok := r.seen[msg.Value]; ok {
		return // value already known: Algorithm 4 relays each value once
	}
	r.seen[msg.Value] = msg.Sigs
	if int(rnd) >= r.Rounds() {
		return // no round left to relay in
	}
	// Append our signature and queue the relay for the next round.
	sig, err := r.peer.Sign(ChainBody(r.initiator, msg.Value, msg.Sigs))
	if err != nil {
		return // unsigned peers cannot relay
	}
	relay := msg.Clone()
	relay.Sender = r.peer.ID()
	relay.Sigs = append(relay.Sigs, wire.SigEntry{Signer: r.peer.ID(), Signature: sig})
	r.relayQ = append(r.relayQ, relay)
}

// validChain checks the Dolev-Strong chain conditions: exactly rnd
// signatures, the first by the initiator, all signers distinct, the local
// node not among them, and every signature verifying over the prefix.
func (r *RBsig) validChain(msg *wire.Message, rnd uint32) bool {
	chain := msg.Sigs
	if len(chain) == 0 || uint32(len(chain)) != rnd {
		return false
	}
	if chain[0].Signer != r.initiator {
		return false
	}
	distinct := make(map[wire.NodeID]bool, len(chain))
	for i, e := range chain {
		if distinct[e.Signer] || e.Signer == r.peer.ID() {
			return false
		}
		distinct[e.Signer] = true
		key, ok := r.peer.Key(e.Signer)
		if !ok {
			return false
		}
		if err := key.Verify(ChainBody(r.initiator, msg.Value, chain[:i]), e.Signature); err != nil {
			return false
		}
	}
	return true
}

// OnFinish implements Proto: accept the unique seen value or bottom.
func (r *RBsig) OnFinish() {
	if r.decided {
		return
	}
	r.decided = true
	r.result = RBsigResult{Round: r.peer.Round(), At: r.peer.Now()}
	if len(r.seen) == 1 {
		for v := range r.seen {
			r.result.Accepted = true
			r.result.Value = v
		}
	}
}

// RBsigGroup runs one RBsig instance per expected initiator on a single
// peer, demultiplexing by msg.Initiator — the building block of SigRNG.
type RBsigGroup struct {
	peer      *Peer
	instances map[wire.NodeID]*RBsig
}

var _ Proto = (*RBsigGroup)(nil)

// NewRBsigGroup builds a group tracking all N initiators.
func NewRBsigGroup(peer *Peer) *RBsigGroup {
	g := &RBsigGroup{peer: peer, instances: make(map[wire.NodeID]*RBsig, peer.N())}
	for id := 0; id < peer.N(); id++ {
		g.instances[wire.NodeID(id)] = NewRBsig(peer, wire.NodeID(id))
	}
	return g
}

// SetInput provides this node's own broadcast value.
func (g *RBsigGroup) SetInput(v wire.Value) {
	g.instances[g.peer.ID()].SetInput(v)
}

// Rounds returns the group length (t+1).
func (g *RBsigGroup) Rounds() int { return g.peer.T() + 1 }

// Instance exposes one tracked instance.
func (g *RBsigGroup) Instance(id wire.NodeID) *RBsig { return g.instances[id] }

// OnRound implements Proto.
func (g *RBsigGroup) OnRound(rnd uint32) {
	for id := 0; id < g.peer.N(); id++ {
		g.instances[wire.NodeID(id)].OnRound(rnd)
	}
}

// OnMessage implements Proto.
func (g *RBsigGroup) OnMessage(src wire.NodeID, msg *wire.Message) {
	if inst, ok := g.instances[msg.Initiator]; ok {
		inst.OnMessage(src, msg)
	}
}

// OnFinish implements Proto.
func (g *RBsigGroup) OnFinish() {
	for _, inst := range g.instances {
		inst.OnFinish()
	}
}
