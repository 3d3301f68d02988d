package runtime_test

import (
	"testing"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// These tests pin the frame-cumulative acknowledgment path: when a
// multi-message batch frame carries every tracked message of a flush
// window, the receiver may answer with ONE valueless ACK naming the
// sealed frame instead of one digest ACK per message, and the sender
// credits the whole window's trackers through it. Anything that breaks
// the frame's uniformity — a selective protocol, a mid-frame flush, a
// destination outside the window's cover — must fall back to classic
// per-message digest ACKs with no change in P4 halting behaviour.

// frameAckFixture runs one scripted round on a 5-node deployment: peer 0
// multicasts two tracked messages in round 1 (one flush window, so every
// receiver gets a single two-message frame) and receivers run onMsg.
type frameAckFixture struct {
	d      *deploy.Deployment
	tr     *telemetry.Tracer
	probes []*probe
}

func newFrameAckFixture(t *testing.T, threshold int, onMsg func(pr *probe, m *wire.Message)) *frameAckFixture {
	t.Helper()
	tr := telemetry.New(telemetry.Options{})
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		for _, v := range []wire.Value{{0x01}, {0x02}} {
			msg := &wire.Message{
				Type: wire.TypeEcho, Sender: 0, Initiator: 0,
				Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true, Value: v,
			}
			if err := sender.peer.Multicast(nil, msg, threshold); err != nil {
				t.Errorf("Multicast: %v", err)
			}
		}
	}
	for _, pr := range probes[1:] {
		pr := pr
		pr.onMsg = func(m *wire.Message) { onMsg(pr, m) }
	}
	return &frameAckFixture{d: d, tr: tr, probes: probes}
}

// ackRecvStats sums the sender's ack-recv trace events: wire-level event
// count and the logical acknowledgments they carried (Arg).
func (f *frameAckFixture) ackRecvStats() (events int, logical uint64) {
	for _, ev := range f.tr.Events() {
		if ev.Node == 0 && ev.Kind == telemetry.KindAckRecv {
			events++
			logical += ev.Arg
		}
	}
	return events, logical
}

// TestFrameAckMergesWindow: every receiver acknowledges both messages of
// the frame, so each answers with a single frame-cumulative ACK. The
// sender must see 4 wire ACKs carrying 8 logical acknowledgments, credit
// both trackers with all 4 receivers (threshold 4: any lost credit would
// halt), and count logical acknowledgments in Stats.
func TestFrameAckMergesWindow(t *testing.T) {
	f := newFrameAckFixture(t, 4, func(pr *probe, m *wire.Message) {
		if err := pr.peer.SendAck(m.Sender, m); err != nil {
			t.Errorf("SendAck: %v", err)
		}
	})
	if err := f.d.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.probes[0].peer.Stats()
	if st.Halts != 0 {
		t.Fatalf("sender halted: %+v", st)
	}
	if st.AcksReceived != 8 {
		t.Fatalf("AcksReceived = %d, want 8 logical", st.AcksReceived)
	}
	events, logical := f.ackRecvStats()
	if events != 4 || logical != 8 {
		t.Fatalf("sender saw %d ack events carrying %d logical acks, want 4 carrying 8 (one merged ACK per receiver)", events, logical)
	}
	for i, pr := range f.probes[1:] {
		if got := pr.peer.Stats().AcksSent; got != 2 {
			t.Fatalf("receiver %d AcksSent = %d, want 2", i+1, got)
		}
	}
}

// TestFrameAckSelectiveFallback: receivers acknowledge only the first
// message of the frame, so the merge condition fails and the deferred
// ACK materializes as a classic digest ACK. The first tracker is fully
// credited; the second gathers nothing and P4 halts the sender — the
// frame path must not manufacture credit a protocol never gave.
func TestFrameAckSelectiveFallback(t *testing.T) {
	f := newFrameAckFixture(t, 4, func(pr *probe, m *wire.Message) {
		if m.Value == (wire.Value{0x01}) {
			if err := pr.peer.SendAck(m.Sender, m); err != nil {
				t.Errorf("SendAck: %v", err)
			}
		}
	})
	if err := f.d.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.probes[0].peer.Stats()
	if st.Halts != 1 {
		t.Fatalf("sender did not halt on the unacknowledged tracker: %+v", st)
	}
	if st.AcksReceived != 4 {
		t.Fatalf("AcksReceived = %d, want 4 (digest ACKs for the first message only)", st.AcksReceived)
	}
	events, logical := f.ackRecvStats()
	if events != 4 || logical != 4 {
		t.Fatalf("sender saw %d ack events carrying %d logical acks, want 4 carrying 4 (per-message fallback)", events, logical)
	}
}

// TestFrameAckMidFrameFlushMaterializes: a protocol Flush between the two
// deliveries of a frame forces the deferred acknowledgment onto the wire
// as a digest ACK (the unbatched runtime would have sent it already).
// The second acknowledgment, deferred after the flush, still cannot merge
// (the flush broke the all-acknowledged accounting), so everything
// degrades to per-message ACKs — and full credit still arrives.
func TestFrameAckMidFrameFlushMaterializes(t *testing.T) {
	f := newFrameAckFixture(t, 4, func(pr *probe, m *wire.Message) {
		if err := pr.peer.SendAck(m.Sender, m); err != nil {
			t.Errorf("SendAck: %v", err)
		}
		pr.peer.Flush()
	})
	if err := f.d.Run(); err != nil {
		t.Fatal(err)
	}
	st := f.probes[0].peer.Stats()
	if st.Halts != 0 {
		t.Fatalf("sender halted despite full acknowledgment: %+v", st)
	}
	if st.AcksReceived != 8 {
		t.Fatalf("AcksReceived = %d, want 8", st.AcksReceived)
	}
	events, logical := f.ackRecvStats()
	if events != 8 || logical != 8 {
		t.Fatalf("sender saw %d ack events carrying %d logical acks, want 8 singles (mid-frame flush disables merging)", events, logical)
	}
}

// TestFrameAckSubsetCover: tracked multicasts to an explicit destination
// subset keep frame-cumulative ACKs for exactly that subset (the window's
// cover), and disjoint subsets in one window empty the cover, degrading
// every frame to per-message ACKs. Every shape must deliver full P4
// credit.
func TestFrameAckSubsetCover(t *testing.T) {
	run := func(t *testing.T, first, second []wire.NodeID, wantEvents int, wantLogical uint64) {
		t.Helper()
		tr := telemetry.New(telemetry.Options{})
		d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 1, Trace: tr})
		if err != nil {
			t.Fatal(err)
		}
		probes := startAll(d, 2)
		sender := probes[0]
		sender.onRound = func(rnd uint32) {
			if rnd != 1 {
				return
			}
			for i, dsts := range [][]wire.NodeID{first, second} {
				msg := &wire.Message{
					Type: wire.TypeEcho, Sender: 0, Initiator: 0,
					Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true,
					Value: wire.Value{byte(i + 1)},
				}
				if err := sender.peer.Multicast(dsts, msg, 1); err != nil {
					t.Errorf("Multicast: %v", err)
				}
			}
		}
		for _, pr := range probes[1:] {
			pr := pr
			pr.onMsg = func(m *wire.Message) {
				if err := pr.peer.SendAck(m.Sender, m); err != nil {
					t.Errorf("SendAck: %v", err)
				}
			}
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		if st := probes[0].peer.Stats(); st.Halts != 0 {
			t.Fatalf("sender halted: %+v", st)
		}
		var events int
		var logical uint64
		for _, ev := range tr.Events() {
			if ev.Node == 0 && ev.Kind == telemetry.KindAckRecv {
				events++
				logical += ev.Arg
			}
		}
		if events != wantEvents || logical != wantLogical {
			t.Fatalf("sender saw %d ack events carrying %d logical acks, want %d carrying %d", events, logical, wantEvents, wantLogical)
		}
	}
	// Same subset twice: destinations 1 and 2 each get a two-message
	// marked frame and answer with one merged ACK apiece.
	t.Run("uniform", func(t *testing.T) { run(t, []wire.NodeID{1, 2}, []wire.NodeID{1, 2}, 2, 4) })
	// Disjoint second subset: the cover intersects to {1}; destination 1
	// still merges its two-message frame, destination 3's singleton is a
	// bare message (nothing to merge).
	t.Run("narrowed", func(t *testing.T) { run(t, []wire.NodeID{1, 2}, []wire.NodeID{1, 3}, 3, 4) })
	// Destination 1 listed twice by the first multicast, absent from the
	// second: its frame holds two messages but only one of the window's
	// two trackers, so it must not be marked — a frame ACK would credit
	// the second tracker, whose message 1 never received. It answers with
	// two digest ACKs for the duplicate (one credit, the replay deduped);
	// destination 2's singleton is a bare message.
	t.Run("duplicate", func(t *testing.T) { run(t, []wire.NodeID{1, 1}, []wire.NodeID{2}, 3, 3) })
}

// TestFrameAckFailedLegDegrades: a multicast leg that fails (destination
// outside the roster) leaves that destination's frame short one message,
// so the whole window must degrade to per-message ACKs — a frame ACK
// from any destination could otherwise credit the tracker of a message
// it never carried.
func TestFrameAckFailedLegDegrades(t *testing.T) {
	tr := telemetry.New(telemetry.Options{})
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 1, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		if rnd != 1 {
			return
		}
		for i, dsts := range [][]wire.NodeID{nil, {1, 2, 3, 4, 9}} {
			msg := &wire.Message{
				Type: wire.TypeEcho, Sender: 0, Initiator: 0,
				Seq: sender.peer.SeqOf(0), Round: 1, HasValue: true,
				Value: wire.Value{byte(i + 1)},
			}
			if err := sender.peer.Multicast(dsts, msg, 4); err != nil {
				t.Errorf("Multicast: %v", err)
			}
		}
	}
	for _, pr := range probes[1:] {
		pr := pr
		pr.onMsg = func(m *wire.Message) {
			if err := pr.peer.SendAck(m.Sender, m); err != nil {
				t.Errorf("SendAck: %v", err)
			}
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	st := probes[0].peer.Stats()
	if st.SendFailures != 1 {
		t.Fatalf("SendFailures = %d, want 1 (the out-of-roster leg)", st.SendFailures)
	}
	if st.Halts != 0 {
		t.Fatalf("sender halted despite full acknowledgment: %+v", st)
	}
	var events int
	var logical uint64
	for _, ev := range tr.Events() {
		if ev.Node == 0 && ev.Kind == telemetry.KindAckRecv {
			events++
			logical += ev.Arg
		}
	}
	if events != 8 || logical != 8 {
		t.Fatalf("sender saw %d ack events carrying %d logical acks, want 8 singles (failed leg degrades the window)", events, logical)
	}
}
