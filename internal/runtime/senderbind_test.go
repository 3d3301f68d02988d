package runtime_test

import (
	"testing"

	"sgxp2p/internal/wire"
)

// TestReceiveEnforcesSenderBinding pins the sender check production
// relies on: the channel authenticates which link an envelope came over,
// and receiveOne / receiveBatch require every message in it to name that
// link's peer as its Sender. Node 0 seals, on its own authentic link to
// node 2, a message claiming Sender 1 — a bare frame is dropped as one
// authentication failure, and inside a batch frame it cuts the frame
// there: the entry before it is delivered, it and everything after it
// are one omission.
func TestReceiveEnforcesSenderBinding(t *testing.T) {
	run := func(t *testing.T, claimed ...wire.NodeID) *probe {
		t.Helper()
		d := newDeployment(t, 3, 1)
		probes := startAll(d, 2)
		a := probes[0]
		a.onRound = func(rnd uint32) {
			if rnd != 1 {
				return
			}
			// One callback, one destination: the sends coalesce into a
			// single frame (a bare one when there is only one).
			for i, sender := range claimed {
				msg := &wire.Message{
					Type: wire.TypeEcho, Sender: sender, Initiator: 0,
					Seq: a.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{byte(i)},
				}
				if err := a.peer.Send(2, msg); err != nil {
					t.Errorf("Send: %v", err)
				}
			}
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		return probes[2]
	}

	t.Run("bare", func(t *testing.T) {
		rx := run(t, 1)
		if st := rx.peer.Stats(); st.AuthFailures != 1 || st.Delivered != 0 {
			t.Fatalf("AuthFailures=%d Delivered=%d, want 1 and 0", st.AuthFailures, st.Delivered)
		}
		if len(rx.msgs) != 0 {
			t.Fatal("a message claiming another link's sender reached the protocol")
		}
	})
	t.Run("batch", func(t *testing.T) {
		rx := run(t, 0, 1, 0)
		if st := rx.peer.Stats(); st.AuthFailures != 1 || st.Delivered != 1 {
			t.Fatalf("AuthFailures=%d Delivered=%d, want 1 and 1", st.AuthFailures, st.Delivered)
		}
		if len(rx.msgs) != 1 || rx.msgs[0].Value != (wire.Value{0}) {
			t.Fatalf("delivered %v, want only the entry ahead of the forged one", rx.msgs)
		}
	})
}
