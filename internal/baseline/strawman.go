package baseline

import (
	"time"

	"sgxp2p/internal/wire"
)

// StrawmanResult is the outcome of a strawman run at one node.
type StrawmanResult struct {
	Accepted bool
	Value    wire.Value
	Round    uint32
	At       time.Duration
}

// Strawman is Algorithm 1: the unauthenticated broadcast used for
// distributed random number generation. An initiator multicasts INIT(m);
// receivers echo; a node accepts m once it has seen echoes from N-t
// distinct nodes. Without authentication or freshness it is vulnerable to
// every attack of Section 2.3; the tests and the bias experiment exploit
// that deliberately.
type Strawman struct {
	peer      *Peer
	initiator wire.NodeID
	input     *wire.Value

	value    wire.Value
	hasValue bool
	sm       map[wire.NodeID]bool
	queued   bool
	echoed   bool
	decided  bool
	result   StrawmanResult
}

var _ Proto = (*Strawman)(nil)

// NewStrawman builds the protocol for one initiator's broadcast.
func NewStrawman(peer *Peer, initiator wire.NodeID) *Strawman {
	return &Strawman{
		peer:      peer,
		initiator: initiator,
		sm:        make(map[wire.NodeID]bool, peer.N()),
	}
}

// SetInput provides the initiator's value m.
func (s *Strawman) SetInput(v wire.Value) { s.input = &v }

// Rounds returns the protocol length: t+1 rounds (Algorithm 1).
func (s *Strawman) Rounds() int { return s.peer.T() + 1 }

// Result returns the node's decision.
func (s *Strawman) Result() (StrawmanResult, bool) { return s.result, s.decided }

// OnRound implements Proto.
func (s *Strawman) OnRound(rnd uint32) {
	if s.queued && !s.echoed {
		s.echoed = true
		s.queued = false
		msg := &wire.Message{
			Type:      wire.TypeStrawEcho,
			Sender:    s.peer.ID(),
			Initiator: s.initiator,
			Round:     rnd,
			HasValue:  true,
			Value:     s.value,
		}
		_ = s.peer.Multicast(nil, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
	}
	if rnd == 1 && s.peer.ID() == s.initiator && s.input != nil {
		s.value = *s.input
		s.hasValue = true
		s.echoed = true
		s.sm[s.peer.ID()] = true
		msg := &wire.Message{
			Type:      wire.TypeStrawInit,
			Sender:    s.peer.ID(),
			Initiator: s.initiator,
			Round:     rnd,
			HasValue:  true,
			Value:     s.value,
		}
		_ = s.peer.Multicast(nil, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
	}
}

// OnMessage implements Proto. Note what is missing compared to ERB: no
// authenticity, no freshness, no round validation — the strawman trusts
// whatever arrives, which is why equivocation splits it.
func (s *Strawman) OnMessage(src wire.NodeID, msg *wire.Message) {
	if msg.Initiator != s.initiator || !msg.HasValue || s.decided {
		return
	}
	switch msg.Type {
	case wire.TypeStrawInit:
		if src != s.initiator {
			return
		}
		if !s.hasValue {
			s.value = msg.Value
			s.hasValue = true
			s.sm[s.peer.ID()] = true
			s.queued = true
		}
		s.sm[src] = true
	case wire.TypeStrawEcho:
		if !s.hasValue {
			s.value = msg.Value
			s.hasValue = true
			s.sm[s.peer.ID()] = true
			s.queued = true
		}
		// First value wins; later conflicting echoes still count toward
		// the accept threshold — the agreement hole A2 exploits.
		s.sm[src] = true
	default:
		return
	}
	if len(s.sm) >= s.peer.N()-s.peer.T() && s.hasValue {
		s.decided = true
		s.result = StrawmanResult{
			Accepted: true,
			Value:    s.value,
			Round:    s.peer.Round(),
			At:       s.peer.Now(),
		}
	}
}

// OnFinish implements Proto.
func (s *Strawman) OnFinish() {
	if s.decided {
		return
	}
	s.decided = true
	s.result = StrawmanResult{Round: s.peer.Round(), At: s.peer.Now()}
}

// Equivocator is the byzantine strawman initiator of attack A2: it sends
// value A to the first half of the network and value B to the second
// half, then echoes consistently with whichever victim asks — splitting
// honest nodes into two accepting camps and violating agreement.
type Equivocator struct {
	peer *Peer
	a, b wire.Value
}

var _ Proto = (*Equivocator)(nil)

// NewEquivocator builds the attacker; it must run at the initiator.
func NewEquivocator(peer *Peer, a, b wire.Value) *Equivocator {
	return &Equivocator{peer: peer, a: a, b: b}
}

// OnRound implements Proto: round 1 sends A to even peers, B to odd ones,
// plus a follow-up echo wave to push both camps over the threshold.
func (e *Equivocator) OnRound(rnd uint32) {
	if rnd > 2 {
		return
	}
	typ := wire.TypeStrawInit
	if rnd == 2 {
		typ = wire.TypeStrawEcho
	}
	for id := 0; id < e.peer.N(); id++ {
		dst := wire.NodeID(id)
		if dst == e.peer.ID() {
			continue
		}
		v := e.a
		if id%2 == 1 {
			v = e.b
		}
		msg := &wire.Message{
			Type:      typ,
			Sender:    e.peer.ID(),
			Initiator: e.peer.ID(),
			Round:     rnd,
			HasValue:  true,
			Value:     v,
		}
		_ = e.peer.Send(dst, msg) //lint:allow droperr a halted or partitioned receiver is recorded by the runtime; the sender has nothing further to do this round
	}
}

// OnMessage implements Proto (the attacker ignores inbound traffic).
func (e *Equivocator) OnMessage(wire.NodeID, *wire.Message) {}

// OnFinish implements Proto.
func (e *Equivocator) OnFinish() {}
