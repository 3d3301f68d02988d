package adversary_test

import (
	"reflect"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// harness bundles a deployment with ERB engines.
type harness struct {
	d       *deploy.Deployment
	engines []*erb.Engine
}

// build creates an n-node deployment where behaviors[id] is set on node
// id's OS; every other node's OS stays honest.
func build(t *testing.T, n, byz int, seed int64, behaviors map[wire.NodeID]adversary.Behavior) *harness {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed})
	if err != nil {
		t.Fatalf("deploy: %v", err)
	}
	for id := range d.Peers {
		if b, ok := behaviors[wire.NodeID(id)]; ok {
			d.OS(wire.NodeID(id)).Set(b)
		}
	}
	return &harness{d: d}
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
	if h.d.OS(1).Stats().Corrupted == 0 {
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
			h.d.OS(1).InjectForged(2, 109)
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
	if h.d.OS(1).Stats().Forged != 10 {
		t.Fatalf("forged = %d, want 10", h.d.OS(1).Stats().Forged)
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
	h.d.Sim.Schedule(2*h.d.RoundDuration()-100*time.Millisecond, func() { h.d.OS(1).Release() })
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
	if h.d.OS(1).Stats().Held == 0 {
		t.Fatal("delaying OS never held anything")
	}
}

func TestReplayAttackRejectedAcrossInstances(t *testing.T) {
	// Run one honest instance while recording node 1's tape; then bump
	// sequence numbers and replay the whole tape into the next instance:
	// every replayed envelope must be discarded (P6).
	const n, byz = 5, 2
	h := build(t, n, byz, 24, map[wire.NodeID]adversary.Behavior{1: adversary.Record()})
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
		if n := h.d.OS(1).ReplayTape(); n == 0 {
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
	st := h.d.OS(1).Stats()
	if st.Dropped == 0 || st.Delivered == 0 {
		t.Fatalf("p=0.5 omission produced stats %+v, want both drops and deliveries", st)
	}
}

func TestMisbehaveWithProbabilityEpochal(t *testing.T) {
	tr := &sink{}
	os := adversary.Wrap(0, tr, adversary.MisbehaveWithProbability(0.5, 7), 1)
	activeEpochs := 0
	const epochs, sends = 200, 6
	for e := 0; e < epochs; e++ {
		os.NewEpoch(uint32(e))
		before := len(tr.sent)
		for i := 0; i < sends; i++ {
			os.Send(wire.NodeID(i), []byte{1})
		}
		// Within one epoch the disposition is stable.
		switch len(tr.sent) - before {
		case 0:
			activeEpochs++
		case sends:
		default:
			t.Fatal("disposition changed within an epoch")
		}
	}
	if activeEpochs < epochs/4 || activeEpochs > epochs*3/4 {
		t.Fatalf("active in %d/%d epochs, want about half", activeEpochs, epochs)
	}
}

func TestOmitToSet(t *testing.T) {
	tr := &sink{}
	b := adversary.OmitTo(4, 2, 2)
	os := adversary.Wrap(0, tr, b, 1)
	for dst := wire.NodeID(1); dst < 6; dst++ {
		os.Send(dst, []byte{1})
	}
	if want := []wire.NodeID{1, 3, 5}; !reflect.DeepEqual(tr.sent, want) {
		t.Fatalf("delivered to %v, want %v", tr.sent, want)
	}
	if got := b.String(); got != "omit-to(2,4)" {
		t.Fatalf("String() = %q", got)
	}
}

// TestSharedBehaviorValue: one Behavior value configures many nodes, each
// OS drawing from a coin of its own, so every node drops what it drops
// when configured alone — and, on a deployment's lanes, no two workers
// share a coin (run it under -race at several -cpu values).
func TestSharedBehaviorValue(t *testing.T) {
	b := adversary.OmitProbabilistic(0.5, 99)
	send := func(oses ...*adversary.OS) {
		for i := 0; i < 64; i++ {
			for _, os := range oses {
				os.Send(wire.NodeID(i%7), []byte{byte(i)})
			}
		}
	}
	alone := &sink{}
	send(adversary.Wrap(1, alone, b, 1))
	one, two := &sink{}, &sink{}
	send(adversary.Wrap(1, one, b, 1), adversary.Wrap(2, two, b, 2))
	if !reflect.DeepEqual(one.sent, alone.sent) || !reflect.DeepEqual(two.sent, alone.sent) {
		t.Fatalf("shared value: node 1 delivered %v, node 2 %v, alone %v", one.sent, two.sent, alone.sent)
	}

	const n, byz = 16, 7
	h := build(t, n, byz, 29, map[wire.NodeID]adversary.Behavior{1: b, 2: b, 3: b})
	h.d.Sim.ArriveAt(0)
	h.startERB(t, byz, 0, val(0xCC))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	h.checkAgreement(t, 4, 0)
	for id := wire.NodeID(1); id <= 3; id++ {
		if st := h.d.OS(id).Stats(); st.Dropped == 0 {
			t.Fatalf("node %d: %+v, want drops", id, st)
		}
	}
}

func TestWrapNilBehaviorIsHonest(t *testing.T) {
	const n, byz = 5, 2
	h := build(t, n, byz, 28, nil) // every OS honest
	h.startERB(t, byz, 0, val(0xBB))
	if err := h.d.Run(); err != nil {
		t.Fatal(err)
	}
	ok, v, maxRound := h.checkAgreement(t, 0, 0)
	if !ok || v != val(0xBB) || maxRound > 2 {
		t.Fatalf("honest run through the OSes degraded: ok=%v v=%v round=%d", ok, v, maxRound)
	}
	for id := range h.d.Peers {
		if h.d.OS(wire.NodeID(id)).Stats().Dropped != 0 {
			t.Fatalf("honest OS %d dropped messages", id)
		}
	}
}
