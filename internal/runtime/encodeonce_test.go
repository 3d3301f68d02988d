package runtime_test

import (
	"testing"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// TestAckWithClonedMessageMatchesStash pins the equivalence of SendAck's
// two digest paths: acknowledging the delivered message pointer (digest
// from the channel plaintext) and acknowledging a copy of it (digest by
// re-encoding) must credit the same multicast tracker. Half the receivers
// ACK the delivered pointer, half ACK a clone; the sender must see all
// four and not halt.
func TestAckWithClonedMessageMatchesStash(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{7},
		}
		if err := sender.peer.Multicast(nil, msg, 4); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	for i, pr := range probes[1:] {
		pr, clone := pr, i%2 == 0
		pr.onMsg = func(m *wire.Message) {
			if clone {
				c := *m
				m = &c
			}
			if err := pr.peer.SendAck(m.Sender, m); err != nil {
				t.Errorf("SendAck: %v", err)
			}
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if probes[0].peer.Halted() {
		t.Fatal("sender halted: cloned-message ACK digests did not match the multicast digest")
	}
	if st := probes[0].peer.Stats(); st.AcksReceived != 4 {
		t.Fatalf("sender received %d acks, want 4", st.AcksReceived)
	}
}

// TestDuplicateAcksNotDoubleCounted proves a replaying acker cannot
// inflate the ACK count: one receiver acknowledging twice still counts
// once, so a threshold of 2 with a single (duplicated) acker halts the
// sender.
func TestDuplicateAcksNotDoubleCounted(t *testing.T) {
	d := newDeployment(t, 5, 2)
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeInit, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: wire.Value{7},
		}
		if err := sender.peer.Multicast(nil, msg, 2); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	probes[1].onMsg = func(m *wire.Message) {
		for k := 0; k < 2; k++ {
			if err := probes[1].peer.SendAck(m.Sender, m); err != nil {
				t.Errorf("SendAck: %v", err)
			}
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if st := sender.peer.Stats(); st.AcksReceived != 2 {
		t.Fatalf("sender received %d acks, want 2", st.AcksReceived)
	}
	if !sender.peer.Halted() {
		t.Fatal("sender with one distinct acker met threshold 2: duplicate ACKs were double-counted")
	}
}

func TestDigestEncodedMatchesDigest(t *testing.T) {
	msg := &wire.Message{
		Type: wire.TypeInit, Sender: 2, Initiator: 2,
		Seq: 11, Round: 3, HasValue: true, Value: wire.Value{0x42},
	}
	viaMsg, err := runtime.Digest(msg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if viaMsg != runtime.DigestEncoded(enc) {
		t.Fatal("DigestEncoded(Encode(msg)) != Digest(msg)")
	}
}
