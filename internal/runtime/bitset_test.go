package runtime

import (
	"testing"

	"sgxp2p/internal/wire"
)

func TestNodeBitsetDedupAndGrowth(t *testing.T) {
	var b nodeBitset
	if !b.set(3) {
		t.Fatal("first set of 3 not reported as new")
	}
	if b.set(3) {
		t.Fatal("duplicate set of 3 reported as new")
	}
	if b.count != 1 {
		t.Fatalf("count = %d, want 1", b.count)
	}
	// Ids beyond the current word capacity (joins grow membership).
	for _, id := range []wire.NodeID{63, 64, 200} {
		if !b.set(id) {
			t.Fatalf("first set of %d not reported as new", id)
		}
		if b.set(id) {
			t.Fatalf("duplicate set of %d reported as new", id)
		}
	}
	if b.count != 4 {
		t.Fatalf("count = %d, want 4", b.count)
	}
}

func TestNodeBitsetReset(t *testing.T) {
	var b nodeBitset
	for _, id := range []wire.NodeID{1, 5, 64} {
		b.set(id)
	}
	words := len(b.words)
	b.reset()
	if b.count != 0 {
		t.Fatalf("count = %d after reset, want 0", b.count)
	}
	if len(b.words) != words {
		t.Fatalf("reset dropped the word capacity: %d words, had %d", len(b.words), words)
	}
	for _, id := range []wire.NodeID{1, 5, 64} {
		if !b.set(id) {
			t.Fatalf("set(%d) after reset not reported as new", id)
		}
	}
}

func TestNodeBitsetUnionCount(t *testing.T) {
	var a, b nodeBitset
	for _, id := range []wire.NodeID{1, 2, 64} {
		a.set(id)
	}
	for _, id := range []wire.NodeID{2, 3, 200} {
		b.set(id)
	}
	// Overlap on 2 counts once; length mismatch both ways.
	if got := a.unionCount(&b); got != 5 {
		t.Fatalf("a.unionCount(b) = %d, want 5", got)
	}
	if got := b.unionCount(&a); got != 5 {
		t.Fatalf("b.unionCount(a) = %d, want 5", got)
	}
	var empty nodeBitset
	if got := a.unionCount(&empty); got != a.count {
		t.Fatalf("unionCount with empty = %d, want %d", got, a.count)
	}
	if got := empty.unionCount(&empty); got != 0 {
		t.Fatalf("unionCount of two empties = %d, want 0", got)
	}
}

func TestDigestEncodedMatchesDigest(t *testing.T) {
	msg := &wire.Message{
		Type: wire.TypeInit, Sender: 2, Initiator: 2,
		Seq: 11, Round: 3, HasValue: true, Value: wire.Value{0x42},
	}
	viaMsg, err := Digest(msg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if viaMsg != DigestEncoded(enc) {
		t.Fatal("DigestEncoded(Encode(msg)) != Digest(msg)")
	}
}
