package runtime_test

import (
	"testing"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// TestStopFreezesPeer pins the crash semantics behind the chaos engine's
// CrashAt: after Stop the peer's pending round ticks are no-ops, inbound
// deliveries are dropped, OnFinish never fires — and, unlike HaltSelf,
// the enclave is not burned.
func TestStopFreezesPeer(t *testing.T) {
	d := newDeployment(t, 4, 1)
	probes := startAll(d, 3)
	d.Sim.Schedule(d.Sim.Now()+3*d.Opts.Delta, func() { d.Peers[2].Stop() })
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	stopped := probes[2]
	if got := len(stopped.rounds); got != 2 {
		t.Fatalf("stopped peer observed %d rounds (%v), want 2 (crash mid-round-2)", got, stopped.rounds)
	}
	if stopped.finished {
		t.Fatal("stopped peer ran OnFinish")
	}
	if d.Peers[2].Halted() {
		t.Fatal("Stop must not halt the enclave (machine crash, not P4 churn)")
	}
	if st := d.Peers[2].Stats(); st.Halts != 0 {
		t.Fatalf("stats: %+v, want no halts", st)
	}
	for i, pr := range probes {
		if i == 2 {
			continue
		}
		if !pr.finished || len(pr.rounds) != 3 {
			t.Fatalf("peer %d disturbed by a crash elsewhere: finished=%v rounds=%v", i, pr.finished, pr.rounds)
		}
	}
}

// TestStoppedPeerDropsDeliveries: envelopes arriving after Stop are
// discarded without reaching a protocol (whose pointer is gone).
func TestStoppedPeerDropsDeliveries(t *testing.T) {
	d := newDeployment(t, 3, 1)
	probes := startAll(d, 2)
	probes[0].onRound = func(rnd uint32) {
		if rnd != 2 {
			return
		}
		msg := &wire.Message{
			Type: wire.TypeChosen, Sender: 0, Initiator: 0,
			Seq: probes[0].peer.SeqOf(0), Round: 2,
		}
		if err := probes[0].peer.Multicast(nil, msg, 0); err != nil {
			t.Errorf("Multicast: %v", err)
		}
	}
	// Stop node 1 just before round 2's multicast is sent.
	d.Sim.Schedule(d.Sim.Now()+2*d.Opts.Delta, func() { d.Peers[1].Stop() })
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if len(probes[1].msgs) != 0 {
		t.Fatalf("stopped peer received %d messages", len(probes[1].msgs))
	}
	if len(probes[2].msgs) != 1 {
		t.Fatalf("live peer received %d messages, want 1", len(probes[2].msgs))
	}
}

// TestMulticastDegradesFailuresToOmissions pins the crash-tolerance fix:
// a destination that cannot be addressed no longer aborts the multicast
// loop — the remaining destinations are still served and the failure is
// counted, exactly like an omitting network.
func TestMulticastDegradesFailuresToOmissions(t *testing.T) {
	d := newDeployment(t, 4, 1)
	probes := startAll(d, 1)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		msg := &wire.Message{
			Type: wire.TypeChosen, Sender: 0, Initiator: 0,
			Seq: sender.peer.SeqOf(0), Round: 1,
		}
		// 9 is outside the roster; 1 and 3 come after it in the loop and
		// must still be reached.
		if err := sender.peer.Multicast([]wire.NodeID{9, 1, 3}, msg, 0); err != nil {
			t.Errorf("Multicast with vanished destination: %v", err)
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if st := sender.peer.Stats(); st.SendFailures != 1 {
		t.Fatalf("stats: %+v, want 1 send failure", st)
	}
	for _, i := range []int{1, 3} {
		if len(probes[i].msgs) != 1 {
			t.Fatalf("peer %d got %d messages, want 1 (multicast wedged)", i, len(probes[i].msgs))
		}
	}
	if len(probes[2].msgs) != 0 {
		t.Fatalf("peer 2 got %d messages, want 0", len(probes[2].msgs))
	}
}

// newDeploymentBatching is newDeployment with the coalescing knob
// exposed, for tests that pin behaviour in both batching modes.
func newDeploymentBatching(t *testing.T, n, byz int, disableBatching bool) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 1, DisableBatching: disableBatching})
	if err != nil {
		t.Fatalf("deploy.New: %v", err)
	}
	return d
}

// TestRoundBoundaryFlushOrdering pins the flush point of the
// round-scoped outbox against the lockstep round check: a message
// multicast from round r's callback is delivered during round r on
// every receiver, in both batching modes. If a flush ever slipped past
// the round boundary, the receivers' lockstep check would reject the
// stale round — so the test asserts full delivery AND zero round
// mismatches, which together rule out late batches.
func TestRoundBoundaryFlushOrdering(t *testing.T) {
	const rounds = 3
	for _, mode := range []struct {
		name            string
		disableBatching bool
	}{
		{"batched", false},
		{"unbatched", true},
	} {
		d := newDeploymentBatching(t, 4, 1, mode.disableBatching)
		probes := startAll(d, rounds)
		sender := probes[0]
		sender.onRound = func(rnd uint32) {
			msg := &wire.Message{
				Type: wire.TypeChosen, Sender: 0, Initiator: 0,
				Seq: sender.peer.SeqOf(0), Round: rnd,
			}
			if err := sender.peer.Multicast(nil, msg, 0); err != nil {
				t.Errorf("%s: round %d multicast: %v", mode.name, rnd, err)
			}
		}
		for _, pr := range probes[1:] {
			pr := pr
			pr.onMsg = func(m *wire.Message) {
				if at := pr.peer.Round(); m.Round != at {
					t.Errorf("%s: peer %d got a round-%d message while in round %d",
						mode.name, pr.peer.ID(), m.Round, at)
				}
			}
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		for i, pr := range probes[1:] {
			if got := len(pr.msgs); got != rounds {
				t.Errorf("%s: peer %d delivered %d messages, want %d (a batch crossed a round boundary and was dropped)",
					mode.name, i+1, got, rounds)
			}
			for j, m := range pr.msgs {
				if int(m.Round) != j+1 {
					t.Errorf("%s: peer %d message %d carries round %d, want %d",
						mode.name, i+1, j, m.Round, j+1)
				}
			}
			if st := pr.peer.Stats(); st.RoundMismatches != 0 {
				t.Errorf("%s: peer %d counted %d round mismatches, want 0", mode.name, i+1, st.RoundMismatches)
			}
		}
	}
}

// TestUnbatchedRunLeavesNoBatchTelemetry pins what DisableBatching means
// to the observability plane: no send passes through the outbox, so a
// traced, metered unbatched run records no KindBatchFlush event and
// never registers the runtime_batch_msgs histogram — even for a callback
// that emits two messages per destination, which batching would coalesce.
func TestUnbatchedRunLeavesNoBatchTelemetry(t *testing.T) {
	tr := telemetry.New(telemetry.Options{})
	reg := telemetry.NewMetrics()
	d, err := deploy.New(deploy.Options{N: 4, T: 1, Seed: 1, DisableBatching: true, Trace: tr, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	probes := startAll(d, 2)
	sender := probes[0]
	sender.onRound = func(rnd uint32) {
		for _, v := range []wire.Value{{0x01}, {0x02}} {
			msg := &wire.Message{
				Type: wire.TypeEcho, Sender: 0, Initiator: 0,
				Seq: sender.peer.SeqOf(0), Round: rnd, HasValue: true, Value: v,
			}
			if err := sender.peer.Multicast(nil, msg, 3); err != nil {
				t.Errorf("round %d multicast: %v", rnd, err)
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
	if st := sender.peer.Stats(); st.Halts != 0 || st.AcksReceived != 12 {
		t.Fatalf("sender stats %+v, want no halt and 12 digest ACKs", st)
	}
	for _, ev := range tr.Events() {
		if ev.Kind == telemetry.KindBatchFlush {
			t.Fatalf("unbatched run recorded a batch flush: %+v", ev)
		}
	}
	for _, mv := range reg.Snapshot() {
		if mv.Name == "runtime_batch_msgs" {
			t.Fatalf("unbatched run registered %s (%s = %v)", mv.Name, mv.Kind, mv.Value)
		}
	}
}

// TestStopMidRoundFlushesOutbox pins the Stop/flush interaction: a peer
// that multicasts from its round callback and then crashes (Stop)
// before the callback returns still gets its buffered frame onto the
// wire — Stop flushes the outbox first, deterministically, in both
// batching modes — and goes silent afterwards.
func TestStopMidRoundFlushesOutbox(t *testing.T) {
	for _, mode := range []struct {
		name            string
		disableBatching bool
	}{
		{"batched", false},
		{"unbatched", true},
	} {
		d := newDeploymentBatching(t, 4, 1, mode.disableBatching)
		probes := startAll(d, 3)
		sender := probes[0]
		sender.onRound = func(rnd uint32) {
			if rnd != 2 {
				return
			}
			msg := &wire.Message{
				Type: wire.TypeChosen, Sender: 0, Initiator: 0,
				Seq: sender.peer.SeqOf(0), Round: 2,
			}
			if err := sender.peer.Multicast(nil, msg, 0); err != nil {
				t.Errorf("%s: multicast: %v", mode.name, err)
			}
			sender.peer.Stop()
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		for i, pr := range probes[1:] {
			if got := len(pr.msgs); got != 1 {
				t.Errorf("%s: peer %d delivered %d messages, want 1 (Stop stranded or duplicated the outbox)",
					mode.name, i+1, got)
			}
		}
		if got := len(sender.rounds); got != 2 {
			t.Errorf("%s: stopped sender observed %d rounds (%v), want 2", mode.name, got, sender.rounds)
		}
		if sender.finished {
			t.Errorf("%s: stopped sender ran OnFinish", mode.name)
		}
	}
}

// TestMulticastHaltedStillAborts: ErrHalted is the one per-destination
// error that must NOT degrade to an omission — a halted sender stops.
func TestMulticastHaltedStillAborts(t *testing.T) {
	d := newDeployment(t, 3, 1)
	startAll(d, 1)
	p := d.Peers[0]
	p.HaltSelf()
	msg := &wire.Message{Type: wire.TypeInit, Sender: 0, Initiator: 0, Round: 1}
	if err := p.Multicast([]wire.NodeID{1, 2}, msg, 0); err != runtime.ErrHalted {
		t.Fatalf("Multicast after halt: %v, want ErrHalted", err)
	}
	if st := p.Stats(); st.SendFailures != 0 {
		t.Fatalf("halted sender counted send failures: %+v", st)
	}
}
