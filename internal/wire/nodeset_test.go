package wire

import (
	"slices"
	"testing"
)

func TestNodeSetDedupAndGrowth(t *testing.T) {
	var s NodeSet
	if !s.Add(3) {
		t.Fatal("first add of 3 not reported as new")
	}
	if s.Add(3) {
		t.Fatal("duplicate add of 3 reported as new")
	}
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
	// Ids beyond the current word capacity (joins grow membership).
	for _, id := range []NodeID{63, 64, 200} {
		if !s.Add(id) {
			t.Fatalf("first add of %d not reported as new", id)
		}
		if s.Add(id) {
			t.Fatalf("duplicate add of %d reported as new", id)
		}
	}
	if s.Count() != 4 {
		t.Fatalf("count = %d, want 4", s.Count())
	}
	if got := s.AppendIDs(nil); !slices.Equal(got, []NodeID{3, 63, 64, 200}) {
		t.Fatalf("AppendIDs = %v, want ascending [3 63 64 200]", got)
	}
	for id, want := range map[NodeID]bool{3: true, 4: false, 200: true, 1000: false} {
		if s.Has(id) != want {
			t.Fatalf("Has(%d) = %v, want %v", id, !want, want)
		}
	}
}

func TestNodeSetReset(t *testing.T) {
	var s NodeSet
	for _, id := range []NodeID{1, 5, 64} {
		s.Add(id)
	}
	words := len(s.words)
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("count = %d after reset, want 0", s.Count())
	}
	if len(s.words) != words {
		t.Fatalf("reset dropped the word capacity: %d words, had %d", len(s.words), words)
	}
	for _, id := range []NodeID{1, 5, 64} {
		if !s.Add(id) {
			t.Fatalf("Add(%d) after reset not reported as new", id)
		}
	}
}

func TestNodeSetUnionCount(t *testing.T) {
	var a, b NodeSet
	for _, id := range []NodeID{1, 2, 64} {
		a.Add(id)
	}
	for _, id := range []NodeID{2, 3, 200} {
		b.Add(id)
	}
	// Overlap on 2 counts once; length mismatch both ways.
	if got := a.UnionCount(&b); got != 5 {
		t.Fatalf("a.UnionCount(b) = %d, want 5", got)
	}
	if got := b.UnionCount(&a); got != 5 {
		t.Fatalf("b.UnionCount(a) = %d, want 5", got)
	}
	var empty NodeSet
	if got := a.UnionCount(&empty); got != a.Count() {
		t.Fatalf("UnionCount with empty = %d, want %d", got, a.Count())
	}
	if got := empty.UnionCount(&empty); got != 0 {
		t.Fatalf("UnionCount of two empties = %d, want 0", got)
	}
}

// TestNodeSetSizedAndCarved: a set made for n ids never grows below n,
// and sets carved from one slab stay apart — one outgrowing its words
// reallocates instead of writing into its neighbour's.
func TestNodeSetSizedAndCarved(t *testing.T) {
	s := NewNodeSet(256)
	words := &s.words[0]
	for id := NodeID(0); id < 256; id += 7 {
		s.Add(id)
	}
	if &s.words[0] != words {
		t.Fatal("a set made for 256 ids grew below 256")
	}
	slab := []uint64{^uint64(0), ^uint64(0)}
	a, b := NodeSetOver(slab[0:1:1]), NodeSetOver(slab[1:2:2])
	if a.Count() != 0 || a.Has(0) || b.Has(0) {
		t.Fatal("NodeSetOver did not clear its words")
	}
	a.Add(1)
	a.Add(70)
	b.Add(2)
	if b.Has(6) || !b.Has(2) || b.Count() != 1 || !a.Has(70) || !a.Has(1) {
		t.Fatalf("carved sets ran into each other: a=%v b=%v", a.AppendIDs(nil), b.AppendIDs(nil))
	}
}
