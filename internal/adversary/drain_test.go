package adversary_test

import (
	"reflect"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/wire"
)

// sink is a minimal runtime.Transport that records sends, for exercising
// the OS without a deployment.
type sink struct {
	sent []wire.NodeID
}

func (s *sink) Send(dst wire.NodeID, payload []byte)             { s.sent = append(s.sent, dst) }
func (s *sink) SetHandler(func(src wire.NodeID, payload []byte)) {}
func (s *sink) Detach()                                          {}
func (s *sink) After(d time.Duration, fn func())                 { fn() }
func (s *sink) Now() time.Duration                               { return 0 }

// TestDrainDeterministic: the teardown fate of held envelopes is a pure
// function of the OS seed — two OSes fed the same hold queue drain into
// the identical release/discard split and release order.
func TestDrainDeterministic(t *testing.T) {
	run := func() (int, int, []wire.NodeID, adversary.Stats) {
		tr := &sink{}
		os := adversary.Wrap(7, tr, adversary.DelayAll(), 4242)
		for i := 0; i < 16; i++ {
			os.Send(wire.NodeID(i%5), []byte{byte(i)})
		}
		if got := os.HeldCount(); got != 16 {
			t.Fatalf("held %d, want 16", got)
		}
		rel, dis := os.Drain()
		return rel, dis, tr.sent, os.Stats()
	}
	rel1, dis1, sent1, st1 := run()
	rel2, dis2, sent2, st2 := run()
	if rel1+dis1 != 16 {
		t.Fatalf("drain lost envelopes: released=%d discarded=%d", rel1, dis1)
	}
	if rel1 == 0 || dis1 == 0 {
		t.Fatalf("degenerate coin sequence (released=%d discarded=%d): pick a different seed", rel1, dis1)
	}
	if rel1 != rel2 || dis1 != dis2 || !reflect.DeepEqual(sent1, sent2) {
		t.Fatalf("same seed drained differently: %d/%d %v vs %d/%d %v",
			rel1, dis1, sent1, rel2, dis2, sent2)
	}
	if st1 != st2 {
		t.Fatalf("stats diverged: %+v vs %+v", st1, st2)
	}
	if os2 := adversary.Wrap(7, &sink{}, adversary.Behavior{}, 4242); func() int { r, d := os2.Drain(); return r + d }() != 0 {
		t.Fatal("drain of an empty hold queue moved envelopes")
	}
	if st1.Held != 16 || st1.Delivered != uint64(rel1) || st1.Dropped != uint64(dis1) {
		t.Fatalf("stats inconsistent with drain: %+v (released=%d discarded=%d)", st1, rel1, dis1)
	}
}

// TestDrainThenReleaseEmpty: Drain empties the hold queue, so a later
// Release is a no-op — teardown cannot double-deliver.
func TestDrainThenReleaseEmpty(t *testing.T) {
	tr := &sink{}
	os := adversary.Wrap(1, tr, adversary.DelayAll(), 9)
	os.Send(2, []byte{0xAA})
	os.Drain()
	before := len(tr.sent)
	os.Release()
	if os.HeldCount() != 0 || len(tr.sent) != before {
		t.Fatal("Release after Drain moved envelopes")
	}
}

// TestSetMidStream: the chaos engine flips a node's behavior at a round
// boundary by Set on its OS; the OS itself never changes.
func TestSetMidStream(t *testing.T) {
	tr := &sink{}
	os := adversary.Wrap(3, tr, adversary.Behavior{}, 1)

	os.Send(0, []byte{1}) // honest: delivered
	os.Set(adversary.OmitAll())
	os.Send(0, []byte{2}) // omitted
	os.Set(adversary.Behavior{})
	os.Send(0, []byte{3}) // honest again

	if got := len(tr.sent); got != 2 {
		t.Fatalf("delivered %d envelopes, want 2 (flip to omit-all dropped the middle one)", got)
	}
	if st := os.Stats(); st.Dropped != 1 || st.Delivered != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestOnlyRecorderKeepsTape: a byzantine OS keeps no copy of what it sent
// — only a Record OS has a tape — and a Record OS replays what it saw, in
// order.
func TestOnlyRecorderKeepsTape(t *testing.T) {
	for _, b := range []adversary.Behavior{{}, adversary.OmitAll(), adversary.CorruptEverything(), adversary.Chain([]wire.NodeID{0}, 0, 1)} {
		os := adversary.Wrap(0, &sink{}, b, 1)
		for i := 0; i < 8; i++ {
			os.Send(wire.NodeID(i%3), []byte{byte(i)})
		}
		if n := os.ReplayTape(); n != 0 {
			t.Fatalf("%s OS kept a tape of %d envelopes", b, n)
		}
	}
	tr := &sink{}
	os := adversary.Wrap(0, tr, adversary.Record(), 1)
	for i := 0; i < 8; i++ {
		os.Send(wire.NodeID(i%3), []byte{byte(i)})
	}
	seen := append([]wire.NodeID(nil), tr.sent...)
	if n := os.ReplayTape(); n != 8 || !reflect.DeepEqual(tr.sent[8:], seen) {
		t.Fatalf("replayed %d envelopes to %v, want 8 to %v", n, tr.sent[8:], seen)
	}
	if st := os.Stats(); st.Delivered != 8 || st.Replayed != 8 {
		t.Fatalf("stats = %+v", st)
	}
}
