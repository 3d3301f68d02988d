package adversary_test

import (
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// harness bundles a deployment with ERB engines and the byzantine OSes.
type harness struct {
	d       *deploy.Deployment
	engines []*erb.Engine
	oses    map[wire.NodeID]*adversary.OS
}

// build creates an n-node deployment where behaviors[id] != nil marks a
// byzantine node with that behaviour; all nodes get a recording OS so
// tests can replay tapes.
func build(t *testing.T, n, byz int, seed int64, behaviors map[wire.NodeID]adversary.Behavior) *harness {
	t.Helper()
	h := &harness{oses: make(map[wire.NodeID]*adversary.OS)}
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: seed,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			os := adversary.Wrap(id, tr, behaviors[id], seed+int64(id))
			h.oses[id] = os
			return os
		},
	})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	h.d = d
	return h
}

func (h *harness) startERB(t *testing.T, byz int, initiator wire.NodeID, v wire.Value) {
	t.Helper()
	h.engines = make([]*erb.Engine, len(h.d.Peers))
	for i, p := range h.d.Peers {
		eng, err := erb.NewEngine(p, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{initiator}})
		if err != nil {
			t.Fatalf("engine %d: %v", i, err)
		}
		h.engines[i] = eng
	}
	h.engines[initiator].SetInput(v)
	for i, p := range h.d.Peers {
		p.Start(h.engines[i], h.engines[i].Rounds())
	}
}

func val(b byte) wire.Value {
	var v wire.Value
	v[0] = b
	return v
}

// checkAgreement asserts all honest nodes (ids >= firstHonest) decided the
// same outcome and returns (accepted?, value, maxRound).
func (h *harness) checkAgreement(t *testing.T, firstHonest int, initiator wire.NodeID) (bool, wire.Value, uint32) {
	t.Helper()
	var accepted, bottom int
	var v wire.Value
	var maxRound uint32
	for i := firstHonest; i < len(h.engines); i++ {
		res, ok := h.engines[i].Result(initiator)
		if !ok {
			t.Fatalf("honest peer %d undecided", i)
		}
		if res.Accepted {
			accepted++
			v = res.Value
		} else {
			bottom++
		}
		if res.Round > maxRound {
			maxRound = res.Round
		}
	}
	if accepted > 0 && bottom > 0 {
		t.Fatalf("agreement violated: %d accepted, %d bottom", accepted, bottom)
	}
	return accepted > 0, v, maxRound
}

func TestCorruptionReducesToOmission(t *testing.T) {
	// A byzantine relay that corrupts every envelope (A2) must be
	// indistinguishable from one that omits: honest nodes reject the
	// envelopes (auth failures) and agreement holds.
	const n, byz = 7, 3
	h := build(t, n, byz, 21, map[wire.NodeID]adversary.Behavior{
		1: adversary.CorruptEverything(),
		2: adversary.CorruptEverything(),
	})
	h.startERB(t, byz, 0, val(0x33))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, _ := h.checkAgreement(t, 3, 0)
	if !ok || v != val(0x33) {
		t.Fatalf("honest outcome (%v, %v), want accepted 0x33", ok, v)
	}
	var authFails uint64
	for i := 3; i < n; i++ {
		authFails += h.d.Peers[i].Stats().AuthFailures
	}
	if authFails == 0 {
		t.Fatal("no auth failures recorded despite corrupting relays")
	}
	if h.oses[1].Stats().Corrupted == 0 {
		t.Fatal("corruptor OS never corrupted")
	}
}

func TestForgedEnvelopesRejected(t *testing.T) {
	const n, byz = 5, 2
	h := build(t, n, byz, 22, nil)
	h.startERB(t, byz, 0, val(0x44))
	// Inject garbage from node 1's OS to node 2 right away.
	h.d.Sim.Schedule(0, func() {
		for i := 0; i < 10; i++ {
			h.oses[1].InjectForged(2, 109)
		}
	})
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, _ := h.checkAgreement(t, 0, 0)
	if !ok || v != val(0x44) {
		t.Fatalf("outcome (%v, %v), want accepted 0x44", ok, v)
	}
	if got := h.d.Peers[2].Stats().AuthFailures; got < 10 {
		t.Fatalf("peer 2 auth failures = %d, want >= 10", got)
	}
	if h.oses[1].Stats().Forged != 10 {
		t.Fatalf("forged = %d, want 10", h.oses[1].Stats().Forged)
	}
}

func TestDelayAttackReducesToOmission(t *testing.T) {
	// Node 1's OS holds all its envelopes (A4) and releases them two
	// rounds later: receivers' lockstep checks discard them.
	const n, byz = 5, 2
	behaviors := map[wire.NodeID]adversary.Behavior{1: adversary.DelayAll()}
	h := build(t, n, byz, 23, behaviors)
	h.startERB(t, byz, 0, val(0x55))
	// Release just before node 1 halts at the end of round 2 (t = 4s with
	// the default 1s delta): the held ECHO is stamped round 2 but arrives
	// during round 3, so receivers discard it (P5).
	h.d.Sim.Schedule(2*h.d.RoundDuration()-100*time.Millisecond, func() { h.oses[1].Release() })
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, _ := h.checkAgreement(t, 2, 0)
	if !ok || v != val(0x55) {
		t.Fatalf("outcome (%v, %v), want accepted 0x55", ok, v)
	}
	var mismatches uint64
	for i := 0; i < n; i++ {
		mismatches += h.d.Peers[i].Stats().RoundMismatches
	}
	if mismatches == 0 {
		t.Fatal("released delayed envelopes were not discarded by the round check")
	}
	if h.oses[1].Stats().Held == 0 {
		t.Fatal("delaying OS never held anything")
	}
}

func TestReplayAttackRejectedAcrossInstances(t *testing.T) {
	// Run one honest instance while recording node 1's tape; then bump
	// sequence numbers and replay the whole tape into the next instance:
	// every replayed envelope must be discarded (P6).
	const n, byz = 5, 2
	h := build(t, n, byz, 24, nil)
	h.startERB(t, byz, 0, val(0x66))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, _, _ := h.checkAgreement(t, 0, 0)
	if !ok {
		t.Fatal("honest warmup instance did not accept")
	}
	for _, p := range h.d.Peers {
		p.BumpSeqs()
	}
	// Second instance: initiator 2 broadcasts; node 1 replays its tape.
	h.startERB(t, byz, 2, val(0x77))
	h.d.Sim.ScheduleAfter(0, func() {
		if n := h.oses[1].ReplayTape(); n == 0 {
			t.Error("nothing to replay")
		}
	})
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, _ := h.checkAgreement(t, 0, 2)
	if !ok || v != val(0x77) {
		t.Fatalf("outcome (%v, %v), want accepted 0x77", ok, v)
	}
	// The replayed warmup value must not resurface anywhere.
	for i, eng := range h.engines {
		if res, found := eng.Result(0); found && res.Accepted {
			t.Fatalf("peer %d accepted a replayed instance-0 value: %+v", i, res)
		}
	}
}

func TestChainStrategyDelaysTermination(t *testing.T) {
	// Byzantine chain 0 -> 1 -> 2 -> (release to 3): termination should
	// stretch to about f+2 rounds and all chain members must halt.
	const n, byz = 9, 4
	chain := []wire.NodeID{0, 1, 2}
	behaviors := make(map[wire.NodeID]adversary.Behavior, len(chain))
	for i, id := range chain {
		behaviors[id] = adversary.Chain(chain, i, 3)
	}
	h := build(t, n, byz, 25, behaviors)
	h.startERB(t, byz, 0, val(0x88))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, maxRound := h.checkAgreement(t, 3, 0)
	if !ok || v != val(0x88) {
		t.Fatalf("outcome (%v, %v), want accepted 0x88", ok, v)
	}
	f := len(chain)
	if maxRound < uint32(f) || maxRound > uint32(f+2) {
		t.Fatalf("termination round %d, want about f+2 = %d", maxRound, f+2)
	}
	for _, id := range chain {
		if !h.d.Peers[id].Halted() {
			t.Fatalf("chain member %d not eliminated", id)
		}
	}
}

func TestChainLongerChainTerminatesLater(t *testing.T) {
	run := func(chainLen int) uint32 {
		const n, byz = 13, 6
		chain := make([]wire.NodeID, chainLen)
		for i := range chain {
			chain[i] = wire.NodeID(i)
		}
		behaviors := make(map[wire.NodeID]adversary.Behavior, chainLen)
		for i, id := range chain {
			behaviors[id] = adversary.Chain(chain, i, wire.NodeID(chainLen))
		}
		h := build(t, n, byz, 26, behaviors)
		h.startERB(t, byz, 0, val(0x99))
		if err := h.d.Run(); err != nil {
			t.Fatal(err)
		}
		_, _, maxRound := h.checkAgreement(t, chainLen, 0)
		return maxRound
	}
	short := run(2)
	long := run(5)
	if long <= short {
		t.Fatalf("longer chain did not delay termination: %d vs %d", short, long)
	}
}

func TestOmitProbabilisticDropsSome(t *testing.T) {
	const n, byz = 7, 3
	h := build(t, n, byz, 27, map[wire.NodeID]adversary.Behavior{
		1: adversary.OmitProbabilistic(0.5, 99),
	})
	h.startERB(t, byz, 0, val(0xAA))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	h.checkAgreement(t, 3, 0)
	st := h.oses[1].Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("p=0.5 omission produced stats %+v, want both drops and deliveries", st)
	}
}

func TestMisbehaveWithProbabilityEpochal(t *testing.T) {
	b := adversary.MisbehaveWithProbability(0.5, 7)
	activeEpochs := 0
	const epochs = 200
	for e := 0; e < epochs; e++ {
		b.(adversary.Epochal).NewEpoch(uint32(e))
		if b.Outbound(1, 100) == adversary.Drop {
			activeEpochs++
		}
		// Within one epoch the disposition is stable.
		first := b.Outbound(1, 100)
		for i := 0; i < 5; i++ {
			if b.Outbound(wire.NodeID(i), 50) != first {
				t.Fatal("disposition changed within an epoch")
			}
		}
	}
	if activeEpochs < epochs/4 || activeEpochs > epochs*3/4 {
		t.Fatalf("active in %d/%d epochs, want about half", activeEpochs, epochs)
	}
}

func TestOmitToPredicate(t *testing.T) {
	b := adversary.OmitTo(func(dst wire.NodeID) bool { return dst%2 == 0 })
	if b.Outbound(2, 10) != adversary.Drop {
		t.Fatal("even destination not dropped")
	}
	if b.Outbound(3, 10) != adversary.Deliver {
		t.Fatal("odd destination not delivered")
	}
}

func TestWrapNilBehaviorIsHonest(t *testing.T) {
	const n, byz = 5, 2
	h := build(t, n, byz, 28, nil) // all OSes honest recorders
	h.startERB(t, byz, 0, val(0xBB))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, maxRound := h.checkAgreement(t, 0, 0)
	if !ok || v != val(0xBB) || maxRound > 2 {
		t.Fatalf("honest run through recording OSes degraded: ok=%v v=%v round=%d", ok, v, maxRound)
	}
	for id, os := range h.oses {
		if os.Stats().Dropped != 0 {
			t.Fatalf("honest OS %d dropped messages", id)
		}
	}
}
