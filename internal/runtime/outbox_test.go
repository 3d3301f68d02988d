package runtime

import (
	crand "crypto/rand"
	"errors"
	"fmt"
	"io"
	"reflect"
	"testing"

	"sgxp2p/internal/channel"
	"sgxp2p/internal/wire"
)

// tapTransport records every frame that leaves the peer.
type tapTransport struct {
	deafTransport
	dsts []wire.NodeID
	envs [][]byte
}

func (tr *tapTransport) Send(dst wire.NodeID, payload []byte) {
	tr.dsts = append(tr.dsts, dst)
	tr.envs = append(tr.envs, append([]byte(nil), payload...))
}

// scripted is a protocol whose callbacks are the test's.
type scripted struct {
	onRound func()
	onMsg   func(m *wire.Message)
}

func (s *scripted) OnRound(uint32) {
	if s.onRound != nil {
		s.onRound()
	}
}

func (s *scripted) OnMessage(m *wire.Message) {
	if s.onMsg != nil {
		s.onMsg(m)
	}
}

func (*scripted) OnFinish() {}

// flakyEntropy stands in for crypto/rand.Reader and fails on demand: the
// one way a seal can fail is its nonce draw.
type flakyEntropy struct {
	real io.Reader
	down bool
}

func (f *flakyEntropy) Read(b []byte) (int, error) {
	if f.down {
		return 0, errors.New("entropy source down")
	}
	return f.real.Read(b)
}

// outboxFixture is node 0 of a roster of four on a tapped transport, in
// round 1 of a scripted protocol, with the far end of each of its links.
type outboxFixture struct {
	t       *testing.T
	p       *Peer
	tr      *tapTransport
	far     []*channel.Link
	proto   *scripted
	entropy *flakyEntropy
}

const outboxN = 4

func newOutboxFixture(t *testing.T) *outboxFixture {
	t.Helper()
	f := &outboxFixture{t: t, tr: &tapTransport{}, proto: &scripted{}, entropy: &flakyEntropy{real: crand.Reader}}
	// An enclave binds its nonce reader to crypto/rand.Reader at its first
	// link; this one's is bound to the fixture's.
	crand.Reader = f.entropy
	t.Cleanup(func() { crand.Reader = f.entropy.real })
	p, encls := lonePeerOn(t, outboxN, f.tr)
	f.p = p
	f.far = make([]*channel.Link, outboxN)
	for id := 1; id < outboxN; id++ {
		l, err := channel.NewLink(encls[id], 0, encls[0].DHPublic(), channel.RealSealer{})
		if err != nil {
			t.Fatal(err)
		}
		f.far[id] = l
	}
	p.Start(f.proto, 3)
	p.tick(1)
	return f
}

// msg is a round-1 message from node `from` labelled v.
func msg(from wire.NodeID, v byte) *wire.Message {
	return &wire.Message{Type: wire.TypeEcho, Sender: from, Initiator: from, Round: 1, HasValue: true, Value: wire.Value{v}}
}

// callback runs script as the protocol's next OnRound, flush included.
func (f *outboxFixture) callback(script func()) {
	f.proto.onRound = script
	f.p.tick(f.p.round + 1)
	f.proto.onRound = nil
}

// frames opens everything sent since the last call at the far ends and
// describes it, one string per frame: "dst:[labels]", with a * after the
// destination of a frame marked for a frame-cumulative ACK.
func (f *outboxFixture) frames() []string {
	f.t.Helper()
	var out []string
	for i, env := range f.tr.envs {
		dst := f.tr.dsts[i]
		plain, err := f.far[dst].OpenRawAppend(nil, env)
		if err != nil {
			f.t.Fatalf("frame %d to %d does not open at the far end: %v", i, dst, err)
		}
		entries, mark := [][]byte{plain}, ""
		if wire.IsBatch(plain) {
			if wire.IsAckedBatch(plain) {
				mark = "*"
			}
			entries = entries[:0]
			it, err := wire.IterBatch(plain)
			if err != nil {
				f.t.Fatal(err)
			}
			for {
				raw, ok, err := it.Next()
				if err != nil {
					f.t.Fatal(err)
				}
				if !ok {
					break
				}
				entries = append(entries, raw)
			}
		}
		var labels []string
		for _, raw := range entries {
			var m wire.Message
			if err := wire.DecodeInto(&m, raw); err != nil {
				f.t.Fatalf("frame %d to %d: %v", i, dst, err)
			}
			if m.Type == wire.TypeAck {
				labels = append(labels, "ack")
			} else {
				labels = append(labels, fmt.Sprint(m.Value[0]))
			}
		}
		out = append(out, fmt.Sprintf("%d%s:%v", dst, mark, labels))
	}
	f.tr.dsts, f.tr.envs = nil, nil
	return out
}

// slotted lists the destinations the outbox holds a slot for, in order.
func (f *outboxFixture) slotted() []wire.NodeID {
	var dsts []wire.NodeID
	for i := range f.p.out {
		dsts = append(dsts, f.p.out[i].dst)
	}
	return dsts
}

// settled checks the outbox between windows: no slot, no link end that
// remembers one, no standing borrow, and `pool` batch buffers back in
// the pool.
func (f *outboxFixture) settled(pool int) {
	f.t.Helper()
	if len(f.p.out) != 0 || f.p.outHasRefs {
		f.t.Errorf("after the flush: %d slots, borrows standing: %v", len(f.p.out), f.p.outHasRefs)
	}
	for id, l := range f.p.links {
		if l != nil && l.slot != 0 {
			f.t.Errorf("after the flush: link end %d still names slot %d", id, l.slot)
		}
	}
	if got := len(f.p.bufFree); got != pool {
		f.t.Errorf("%d batch buffers in the pool, want %d", got, pool)
	}
}

// TestSparseOutbox drives the round-scoped outbox through every state a
// slot can take — opened by a borrow, materialized by the next encode or
// by a second message, flushed bare or as a container, failed at the seal
// — and checks what reaches the far ends, the flush order, and that a
// slot and its buffer exist only between a destination's first message
// and the window's flush.
func TestSparseOutbox(t *testing.T) {
	all := []wire.NodeID{1, 2, 3}
	for _, c := range []struct {
		name   string
		script func(f *outboxFixture)
		want   []string
		pool   int
		// bare runs the script as its own event instead of as an OnRound.
		bare bool
	}{
		{
			// One multicast: every leg borrows the one encoding, nothing
			// is copied, no buffer is taken.
			name: "borrowed singletons",
			script: func(f *outboxFixture) {
				f.p.Multicast(nil, msg(0, 1), 0)
				if got := f.slotted(); !reflect.DeepEqual(got, all) || len(f.p.bufFree) != 0 || f.p.out[1].buf != nil {
					t.Errorf("slots %v (want %v), buffer taken: %v", got, all, f.p.out[1].buf != nil)
				}
			},
			want: []string{"1:[1]", "2:[1]", "3:[1]"},
		},
		{
			// A slot is opened at a destination's first message and not
			// before: the outbox is as wide as the window.
			name: "one destination, one slot",
			script: func(f *outboxFixture) {
				f.p.Send(3, msg(0, 1))
				f.p.Send(3, msg(0, 2))
				if got := f.slotted(); !reflect.DeepEqual(got, []wire.NodeID{3}) {
					t.Errorf("slots %v after two messages to node 3", got)
				}
			},
			want: []string{"3:[1 2]"},
			pool: 1,
		},
		{
			// The second encode materializes the three borrows; node 2's
			// slot grows into a container, the other two flush bare out of
			// their buffers. Flush order is first-enqueue order.
			name: "materialized by the next encode",
			script: func(f *outboxFixture) {
				f.p.Multicast([]wire.NodeID{3, 1, 2}, msg(0, 1), 0)
				f.p.Send(2, msg(0, 2))
				if f.p.outHasRefs || f.p.out[0].ref != nil || f.p.out[0].buf == nil {
					t.Error("a borrow outlived the encode scratch it pointed into")
				}
			},
			want: []string{"3:[1]", "1:[1]", "2:[1 2]"},
			pool: 3,
		},
		{
			// A destination listed twice gets the message twice in one
			// frame and counts once toward the window's cover, so the
			// frame — two messages, every tracker of the window — is
			// marked; node 2's singleton is not.
			name: "destination listed twice",
			script: func(f *outboxFixture) {
				f.p.Multicast([]wire.NodeID{1, 1, 2}, msg(0, 1), 1)
				if got := f.slotted(); !reflect.DeepEqual(got, []wire.NodeID{1, 2}) || f.p.out[0].cover != 1 || f.p.out[0].n != 2 {
					t.Errorf("slots %v, node 1: cover %d, n %d", got, f.p.out[0].cover, f.p.out[0].n)
				}
			},
			want: []string{"1*:[1 1]", "2:[1]"},
			pool: 1,
		},
		{
			// A protocol Flush ends the window: the slots go, and the next
			// message to the same destination opens slot 1 again.
			name: "Flush in mid-callback",
			script: func(f *outboxFixture) {
				f.p.Multicast(nil, msg(0, 1), 0)
				f.p.Flush()
				f.settled(0)
				f.p.Send(2, msg(0, 2))
				f.p.Send(2, msg(0, 3))
				if got := f.slotted(); !reflect.DeepEqual(got, []wire.NodeID{2}) || f.p.links[2].slot != 1 {
					t.Errorf("slots %v after the flush, node 2 in slot %d", got, f.p.links[2].slot)
				}
			},
			want: []string{"1:[1]", "2:[1]", "3:[1]", "2:[2 3]"},
			pool: 1,
		},
		{
			// A marked frame from node 1 whose first message makes the
			// protocol flush: the deferred ACK leaves at once as a digest
			// ACK, the second follows in its own window, and each window
			// had the one slot.
			name: "Flush in mid-delivery",
			script: func(f *outboxFixture) {
				f.proto.onMsg = func(m *wire.Message) {
					f.p.SendAck(m.Sender, m)
					if m.Value[0] == 1 {
						if len(f.p.pendAcks) != 1 || len(f.p.out) != 0 {
							t.Errorf("%d deferred ACKs, %d slots before the flush", len(f.p.pendAcks), len(f.p.out))
						}
						f.p.Flush()
						f.settled(0)
					}
				}
				var batch []byte
				for v := byte(1); v <= 2; v++ {
					enc, err := msg(1, v).Encode()
					if err != nil {
						t.Fatal(err)
					}
					batch = wire.AppendBatchEntry(batch, enc)
				}
				wire.MarkBatchAcked(batch)
				env, err := f.far[1].SealEncodedAppend(nil, batch)
				if err != nil {
					t.Fatal(err)
				}
				f.p.receive(1, env)
			},
			want: []string{"1:[ack]", "1:[ack]"},
			bare: true,
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			f := newOutboxFixture(t)
			if c.bare {
				c.script(f)
			} else {
				f.callback(func() { c.script(f) })
			}
			if got := f.frames(); !reflect.DeepEqual(got, c.want) {
				t.Errorf("frames %v, want %v", got, c.want)
			}
			f.settled(c.pool)
			if st := f.p.Stats(); st.SendFailures != 0 {
				t.Errorf("%d send failures", st.SendFailures)
			}
		})
	}

	// A seal that fails — the nonce draw, once the enclave's batch of
	// nonces is used up — degrades its frame to omissions, one per
	// message, and still returns the slot's buffer: the next window finds
	// the outbox as any other flush leaves it.
	t.Run("seal failure", func(t *testing.T) {
		f := newOutboxFixture(t)
		f.entropy.down = true
		for f.p.Send(1, msg(0, 0)) == nil {
		}
		f.frames()
		window := func() {
			f.p.Multicast(nil, msg(0, 1), 0)
			f.p.Send(2, msg(0, 2))
		}
		f.callback(window)
		if got, st := f.frames(), f.p.Stats(); len(got) != 0 || st.SendFailures != 4 {
			t.Errorf("frames %v, %d send failures; want none sent and one omission per message (4)", got, st.SendFailures)
		}
		f.settled(3)
		f.entropy.down = false
		f.callback(window)
		if got, want := f.frames(), []string{"1:[1]", "2:[1 2]", "3:[1]"}; !reflect.DeepEqual(got, want) {
			t.Errorf("frames %v once the entropy source is back, want %v", got, want)
		}
		f.settled(3)
	})
}
