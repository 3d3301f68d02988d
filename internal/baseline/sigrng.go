package baseline

import (
	"sort"
	"time"

	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// SigRNGResult is the outcome of a SigRNG run at one node.
type SigRNGResult struct {
	OK           bool
	Value        wire.Value
	Contributors []wire.NodeID
	Round        uint32
	At           time.Duration
}

// SigRNG is the signature-based distributed RNG baseline of Table 2:
// every node broadcasts a random coin through RBsig and the output is the
// XOR of the accepted coins. It inherits RBsig's O(N^3)-per-instance cost
// (O(N^4) total) and — crucially — it is biasable: the signature chains
// let a byzantine node inject its coin in round 2, after it has already
// seen every honest coin (the look-ahead attack A4). LookAheadAttacker
// implements exactly that; the bias experiment contrasts it with ERNG,
// where blind-box computation (P3) and lockstep execution (P5) close the
// attack.
type SigRNG struct {
	peer    *Peer
	group   *RBsigGroup
	decided bool
	result  SigRNGResult
}

var _ Proto = (*SigRNG)(nil)

// NewSigRNG builds the protocol; the node's coin is drawn from rng (pass
// a seeded source for reproducible tests).
func NewSigRNG(peer *Peer, coin wire.Value) *SigRNG {
	g := NewRBsigGroup(peer)
	g.SetInput(coin)
	return &SigRNG{peer: peer, group: g}
}

// Rounds returns the protocol length (t+1, the RBsig window).
func (s *SigRNG) Rounds() int { return s.group.Rounds() }

// Result returns the node's decision.
func (s *SigRNG) Result() (SigRNGResult, bool) { return s.result, s.decided }

// OnRound implements Proto.
func (s *SigRNG) OnRound(rnd uint32) { s.group.OnRound(rnd) }

// OnMessage implements Proto.
func (s *SigRNG) OnMessage(src wire.NodeID, msg *wire.Message) { s.group.OnMessage(src, msg) }

// OnFinish implements Proto: XOR the accepted coins.
func (s *SigRNG) OnFinish() {
	s.group.OnFinish()
	if s.decided {
		return
	}
	s.decided = true
	s.result = SigRNGResult{Round: s.peer.Round(), At: s.peer.Now()}
	ids := make([]wire.NodeID, 0, s.peer.N())
	for id := 0; id < s.peer.N(); id++ {
		res, ok := s.group.Instance(wire.NodeID(id)).Result()
		if ok && res.Accepted {
			ids = append(ids, wire.NodeID(id))
			s.result.Value = s.result.Value.XOR(res.Value)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	s.result.Contributors = ids
	s.result.OK = len(ids) > 0
}

// LookAheadAttacker is the byzantine SigRNG participant of attack A4: it
// withholds its own coin in round 1, reads every honest coin from the
// round-1 broadcasts, then picks its coin so the final XOR equals Target,
// and injects it in round 2 with a two-signature chain co-signed by a
// colluder. In the SGX protocols this is impossible: the coins travel in
// sealed envelopes (P3) and the trusted clock stops late contributions
// (P5); here it succeeds, which the bias experiment quantifies.
type LookAheadAttacker struct {
	peer     *Peer
	colluder wire.NodeID
	colKey   *xcrypto.SigningKey
	target   wire.Value

	seen map[wire.NodeID]wire.Value
}

var _ Proto = (*LookAheadAttacker)(nil)

// NewLookAheadAttacker builds the attacker; colKey is the colluding
// node's signing key (byzantine nodes share keys).
//
//lint:allow keyleak the baseline attacker colludes with leaked signing keys on purpose — that leak is the attack being modeled
func NewLookAheadAttacker(peer *Peer, colluder wire.NodeID, colKey *xcrypto.SigningKey, target wire.Value) *LookAheadAttacker {
	return &LookAheadAttacker{
		peer:     peer,
		colluder: colluder,
		colKey:   colKey,
		target:   target,
		seen:     make(map[wire.NodeID]wire.Value),
	}
}

// OnRound implements Proto. At round 2 the attacker knows all round-1
// coins and commits the correcting coin.
func (a *LookAheadAttacker) OnRound(rnd uint32) {
	if rnd != 2 {
		return
	}
	// coin = target XOR (XOR of every honest coin seen): the final fold
	// over {honest coins} U {coin} then equals target.
	coin := a.target
	for _, v := range a.seen {
		coin = coin.XOR(v)
	}
	sig0, err := a.peer.Sign(ChainBody(a.peer.ID(), coin, nil))
	if err != nil {
		return
	}
	chain := []wire.SigEntry{{Signer: a.peer.ID(), Signature: sig0}}
	sig1 := a.colKey.Sign(ChainBody(a.peer.ID(), coin, chain))
	chain = append(chain, wire.SigEntry{Signer: a.colluder, Signature: sig1})
	msg := &wire.Message{
		Type:      wire.TypeSigRelay,
		Sender:    a.peer.ID(),
		Initiator: a.peer.ID(),
		Round:     rnd,
		HasValue:  true,
		Value:     coin,
		Sigs:      chain,
	}
	_ = a.peer.Multicast(nil, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
}

// OnMessage implements Proto: harvest round-1 coins.
func (a *LookAheadAttacker) OnMessage(src wire.NodeID, msg *wire.Message) {
	if msg.Type != wire.TypeSigRelay || !msg.HasValue {
		return
	}
	if len(msg.Sigs) == 1 && msg.Sigs[0].Signer == msg.Initiator {
		a.seen[msg.Initiator] = msg.Value
	}
}

// OnFinish implements Proto.
func (a *LookAheadAttacker) OnFinish() {}

// Silent is a byzantine participant that does nothing at all (a crashed
// or withholding node); used as the colluder role in attack scenarios.
type Silent struct{}

var _ Proto = Silent{}

// OnRound implements Proto.
func (Silent) OnRound(uint32) {}

// OnMessage implements Proto.
func (Silent) OnMessage(wire.NodeID, *wire.Message) {}

// OnFinish implements Proto.
func (Silent) OnFinish() {}
