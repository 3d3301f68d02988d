package sgxp2p

import (
	"sgxp2p/internal/adversary"
)

// Adversary types, re-exported so experiments against byzantine nodes can
// be built through the public API. A Behavior is the byzantine operating
// system's per-envelope policy, a printable value; it decides from the
// destination alone (the blind-box property P3) and can only omit, hold,
// replay or corrupt sealed envelopes — the paper's Theorem A.2 reduction,
// enforced structurally.
type (
	// Behavior is the byzantine OS policy; the zero value is honest.
	Behavior = adversary.Behavior
	// AdversaryOS is the byzantine OS of one node.
	AdversaryOS = adversary.OS
	// AdversaryStats counts what a byzantine OS did.
	AdversaryStats = adversary.Stats
)

// OmitAll drops every outbound envelope (attack A3).
func OmitAll() Behavior { return adversary.OmitAll() }

// OmitTo drops envelopes to the given destinations (identity-selective
// omission, attack A3).
func OmitTo(dsts ...NodeID) Behavior { return adversary.OmitTo(dsts...) }

// OmitProbabilistic drops each envelope independently with probability p.
func OmitProbabilistic(p float64, seed int64) Behavior {
	return adversary.OmitProbabilistic(p, seed)
}

// DelayAll holds every envelope for a later release (attack A4); the
// lockstep round check turns released envelopes into omissions.
func DelayAll() Behavior { return adversary.DelayAll() }

// CorruptEverything flips one bit of every envelope (attack A2); the
// channel MAC turns corruption into omission.
func CorruptEverything() Behavior { return adversary.CorruptEverything() }

// Record is honest, and keeps a tape of the node's envelopes for
// AdversaryOS.ReplayTape (attack A5).
func Record() Behavior { return adversary.Record() }

// Chain is the worst-case strategy of the paper's Section 6.3: each chain
// member forwards only to the next, delaying honest acceptance to ~f+2
// rounds while every member churns itself out.
func Chain(chain []NodeID, self int, release NodeID) Behavior {
	return adversary.Chain(chain, self, release)
}

// MisbehaveWithProbability omits everything with probability p per epoch
// (the Appendix D sanitization model).
func MisbehaveWithProbability(p float64, seed int64) Behavior {
	return adversary.MisbehaveWithProbability(p, seed)
}
