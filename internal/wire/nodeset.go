package wire

import "math/bits"

// NodeSet is a dense set of NodeIDs with a running count. Node ids are
// small dense integers, so a few words replace a map and its hashing:
// the runtime's ACK trackers, ERB's Secho and Algorithm 6's cluster and
// FINAL senders are all NodeSets. The zero value is an empty set that
// grows on Add.
type NodeSet struct {
	words []uint64
	count int
}

// NewNodeSet returns an empty set with room for ids below n, so adding
// them never grows it.
func NewNodeSet(n int) NodeSet {
	return NodeSet{words: make([]uint64, (n+63)/64)}
}

// NodeSetOver returns an empty set kept in words, which it clears: sets
// carved from one slab cost one allocation together. Pass words with a
// capped capacity, so a set that outgrows them reallocates instead of
// running into its neighbour's.
func NodeSetOver(words []uint64) NodeSet {
	clear(words)
	return NodeSet{words: words}
}

// Add records id and reports whether it was newly added, so a duplicate
// (a replayed ACK, a repeated FINAL) is not counted twice.
func (s *NodeSet) Add(id NodeID) bool {
	w, bit := int(id)/64, uint(id)%64
	if w >= len(s.words) {
		// Joins (AddPeer) can grow membership past the size the set was
		// made for.
		grown := make([]uint64, w+1)
		copy(grown, s.words)
		s.words = grown
	}
	if s.words[w]&(1<<bit) != 0 {
		return false
	}
	s.words[w] |= 1 << bit
	s.count++
	return true
}

// Has reports whether id is in the set.
func (s *NodeSet) Has(id NodeID) bool {
	w := int(id) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(id)%64)) != 0
}

// Count returns the number of ids in the set.
func (s *NodeSet) Count() int { return s.count }

// Reset empties the set, keeping its words for reuse.
func (s *NodeSet) Reset() {
	clear(s.words)
	s.count = 0
}

// AppendIDs appends the set's ids to dst in ascending order.
func (s *NodeSet) AppendIDs(dst []NodeID) []NodeID {
	for i, w := range s.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, NodeID(i*64+bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// UnionCount returns |s ∪ o| without materializing the union; either
// side's words may be shorter (or nil) than the other's.
func (s *NodeSet) UnionCount(o *NodeSet) int {
	long, short := s.words, o.words
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
