package erb_test

import (
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// buildEngines creates one ERB engine per peer and starts them all for the
// engine's round count.
func buildEngines(t *testing.T, d *deploy.Deployment, cfg erb.Config) []*erb.Engine {
	t.Helper()
	engines := make([]*erb.Engine, len(d.Peers))
	for i, p := range d.Peers {
		eng, err := erb.NewEngine(p, cfg)
		if err != nil {
			t.Fatalf("NewEngine(%d): %v", i, err)
		}
		engines[i] = eng
	}
	return engines
}

func startAll(d *deploy.Deployment, engines []*erb.Engine) {
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
}

func value(b byte) wire.Value {
	var v wire.Value
	v[0] = b
	return v
}

func TestHonestBroadcastAllAcceptInTwoRounds(t *testing.T) {
	const n, byz = 7, 3
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	engines[0].SetInput(value(0xCD))
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		res, ok := eng.Result(0)
		if !ok {
			t.Fatalf("peer %d has no result", i)
		}
		if !res.Accepted || res.Value != value(0xCD) {
			t.Fatalf("peer %d result %+v, want accepted 0xCD", i, res)
		}
		if res.Round > 2 {
			t.Fatalf("peer %d accepted in round %d, want <= 2 (early stopping, honest case)", i, res.Round)
		}
		if d.Peers[i].Halted() {
			t.Fatalf("honest peer %d halted", i)
		}
	}
}

func TestSilentInitiatorAllDecideBottom(t *testing.T) {
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	// Initiator 0 never calls SetInput: models a crashed initiator.
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		res, ok := eng.Result(0)
		if !ok {
			t.Fatalf("peer %d has no result", i)
		}
		if res.Accepted {
			t.Fatalf("peer %d accepted %v from a silent initiator", i, res.Value)
		}
	}
}

func TestOmitAllInitiatorHaltsOthersDecideBottom(t *testing.T) {
	const n, byz = 7, 3
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d.OS(0).Set(adversary.OmitAll())
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	engines[0].SetInput(value(1))
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.Peers[0].Halted() {
		t.Fatal("initiator whose OS omitted every INIT did not halt (P4 violated)")
	}
	for i := 1; i < n; i++ {
		res, ok := engines[i].Result(0)
		if !ok || res.Accepted {
			t.Fatalf("peer %d: result %+v ok=%v, want bottom", i, res, ok)
		}
	}
}

func TestSelectiveOmissionStillAgrees(t *testing.T) {
	// The byzantine initiator's OS delivers INIT only to peer 1 (identity-
	// based selective omission, A3). Validity for byzantine senders is not
	// required, but agreement is: either all honest nodes accept m, or all
	// decide bottom. Here peer 1 relays, so everyone accepts by round f+2.
	const n, byz = 7, 3
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	d.OS(0).Set(adversary.Chain([]wire.NodeID{0}, 0, 1)) // only-to(1)
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	engines[0].SetInput(value(0x77))
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if !d.Peers[0].Halted() {
		t.Fatal("selectively-omitting initiator did not halt")
	}
	for i := 1; i < n; i++ {
		res, ok := engines[i].Result(0)
		if !ok {
			t.Fatalf("peer %d undecided", i)
		}
		if !res.Accepted || res.Value != value(0x77) {
			t.Fatalf("peer %d: %+v, want accepted 0x77 (agreement)", i, res)
		}
		if res.Round > 3 {
			t.Fatalf("peer %d accepted in round %d, want <= f+2 = 3", i, res.Round)
		}
	}
}

func TestAgreementPropertyUnderRandomOmissions(t *testing.T) {
	// For a sweep of seeds, a byzantine initiator plus byzantine relays
	// that drop random subsets must never break agreement among honest
	// nodes: all accept the same value or all decide bottom.
	const n, byz = 9, 4
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		for id := 0; id < byz; id++ {
			mask := seed*7 + int64(id)
			var drop []wire.NodeID
			for dst := wire.NodeID(0); dst < n; dst++ {
				if (mask>>(dst%8))&1 == 0 {
					drop = append(drop, dst)
				}
			}
			d.OS(wire.NodeID(id)).Set(adversary.OmitTo(drop...))
		}
		engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
		engines[0].SetInput(value(byte(seed + 1)))
		startAll(d, engines)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		var accepted, bottom int
		var got wire.Value
		for i := byz; i < n; i++ {
			res, ok := engines[i].Result(0)
			if !ok {
				t.Fatalf("seed %d: honest peer %d undecided", seed, i)
			}
			if res.Accepted {
				accepted++
				got = res.Value
			} else {
				bottom++
			}
		}
		if accepted > 0 && bottom > 0 {
			t.Fatalf("seed %d: agreement violated: %d accepted, %d bottom", seed, accepted, bottom)
		}
		if accepted > 0 && got != value(byte(seed+1)) {
			t.Fatalf("seed %d: honest nodes accepted forged value %v", seed, got)
		}
	}
}

func TestConcurrentInstancesAllAccept(t *testing.T) {
	// Every node initiates (the unoptimized-ERNG workload): all honest
	// nodes must accept all N values.
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz})
	for i, eng := range engines {
		eng.SetInput(value(byte(i + 1)))
	}
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if got := eng.AcceptedCount(); got != n {
			t.Fatalf("peer %d accepted %d instances, want %d", i, got, n)
		}
		for init := wire.NodeID(0); init < n; init++ {
			res, ok := eng.Result(init)
			if !ok || !res.Accepted || res.Value != value(byte(init+1)) {
				t.Fatalf("peer %d result for initiator %d: %+v ok=%v", i, init, res, ok)
			}
		}
	}
}

func TestClusterScopedBroadcast(t *testing.T) {
	// ERB scoped to members {1,3,5} of a 7-node network: non-members see
	// nothing, members agree.
	const n = 7
	members := []wire.NodeID{1, 3, 5}
	d, err := deploy.New(deploy.Options{N: n, T: 3, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	cfg := erb.Config{Members: members, T: 1, ExpectedInitiators: []wire.NodeID{3}}
	engines := buildEngines(t, d, cfg)
	engines[3].SetInput(value(0x5A))
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for _, id := range members {
		res, ok := engines[id].Result(3)
		if !ok || !res.Accepted || res.Value != value(0x5A) {
			t.Fatalf("member %d: %+v ok=%v", id, res, ok)
		}
	}
	for _, id := range []wire.NodeID{0, 2, 4, 6} {
		if _, ok := engines[id].Result(3); ok {
			t.Fatalf("non-member %d observed the cluster broadcast", id)
		}
	}
}

func TestEngineValidation(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := erb.NewEngine(nil, erb.Config{}); err == nil {
		t.Error("nil peer accepted")
	}
	if _, err := erb.NewEngine(d.Peers[0], erb.Config{T: 3}); err == nil {
		t.Error("t > (N-1)/2 accepted")
	}
	if _, err := erb.NewEngine(d.Peers[0], erb.Config{T: -1}); err == nil {
		t.Error("negative t accepted")
	}
	if _, err := erb.NewEngine(d.Peers[0], erb.Config{Members: []wire.NodeID{0}}); err == nil {
		t.Error("single-member scope accepted")
	}
	if _, err := erb.NewEngine(d.Peers[0], erb.Config{T: 2, ExpectedInitiators: []wire.NodeID{99}}); err == nil {
		t.Error("expected initiator outside members accepted")
	}
}

func TestRoundsAccountsForStartRound(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := erb.NewEngine(d.Peers[0], erb.Config{T: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng.Rounds(); got != 4 { // t+2 with start round 1
		t.Fatalf("Rounds = %d, want 4", got)
	}
	eng2, err := erb.NewEngine(d.Peers[0], erb.Config{T: 2, StartRound: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := eng2.Rounds(); got != 6 {
		t.Fatalf("Rounds with StartRound=3 = %d, want 6", got)
	}
}

func TestIntegrityAcceptAtMostOnce(t *testing.T) {
	// Integrity (Definition 2.1): each honest node accepts exactly one
	// result per instance, and it is the initiator's value.
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{2}})
	engines[2].SetInput(value(0x42))
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		first, ok := eng.Result(2)
		if !ok {
			t.Fatalf("peer %d undecided", i)
		}
		// Results are stable after decision: querying again yields the
		// identical decision (accept-once).
		second, _ := eng.Result(2)
		if first != second {
			t.Fatalf("peer %d decision changed: %+v -> %+v", i, first, second)
		}
	}
}

func TestTwoConsecutiveInstancesWithSeqBump(t *testing.T) {
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for epoch := 0; epoch < 2; epoch++ {
		engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
		engines[0].SetInput(value(byte(0x10 + epoch)))
		startAll(d, engines)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		for i, eng := range engines {
			res, ok := eng.Result(0)
			if !ok || !res.Accepted || res.Value != value(byte(0x10+epoch)) {
				t.Fatalf("epoch %d peer %d: %+v ok=%v", epoch, i, res, ok)
			}
		}
		for _, p := range d.Peers {
			p.BumpSeqs()
		}
	}
}

func TestTrafficQuadratic(t *testing.T) {
	// Communication complexity: the honest-case message count must grow
	// quadratically (Lemma C.7: at most 2N^2 messages).
	counts := make(map[int]uint64)
	for _, n := range []int{8, 16, 32} {
		byz := (n - 1) / 2
		d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 13})
		if err != nil {
			t.Fatal(err)
		}
		engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
		engines[0].SetInput(value(1))
		d.Net.ResetTraffic()
		startAll(d, engines)
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		counts[n] = d.Net.Traffic().Messages
		if max := uint64(2 * n * n); counts[n] > max {
			t.Fatalf("N=%d: %d messages exceeds 2N^2 = %d", n, counts[n], max)
		}
	}
	// Quadratic growth: doubling N should roughly quadruple messages.
	r1 := float64(counts[16]) / float64(counts[8])
	r2 := float64(counts[32]) / float64(counts[16])
	for _, r := range []float64{r1, r2} {
		if r < 2.5 || r > 6 {
			t.Fatalf("message growth ratio %.2f outside quadratic band [2.5, 6] (counts=%v)", r, counts)
		}
	}
}

func TestResultsAndAcceptedCount(t *testing.T) {
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz})
	for i, eng := range engines {
		eng.SetInput(value(byte(i + 1)))
	}
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		for init := wire.NodeID(0); init < n; init++ {
			if res, ok := eng.Result(init); !ok || !res.Accepted || res.Value != value(byte(init+1)) {
				t.Fatalf("peer %d Result(%d) = %+v, %v", i, init, res, ok)
			}
		}
		if got := eng.AcceptedCount(); got != n {
			t.Fatalf("peer %d AcceptedCount = %d, want %d", i, got, n)
		}
		// The accepted set reads off the instance table in id order.
		set := eng.AppendAccepted(nil)
		if len(set) != n {
			t.Fatalf("peer %d AppendAccepted has %d entries, want %d", i, len(set), n)
		}
		for j, e := range set {
			if e.Initiator != wire.NodeID(j) || e.Value != value(byte(j+1)) {
				t.Fatalf("peer %d AppendAccepted[%d] = %+v", i, j, e)
			}
		}
	}
}

func TestStaleEpochMessagesIgnored(t *testing.T) {
	// An engine for instance k must ignore messages stamped with a
	// different instance even when seq and round would match: freshness
	// across epochs (P6) at the protocol layer.
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 15})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	// Craft a raw INIT claiming a future instance and inject it via the
	// peer's own multicast (the enclave would never do this; the test
	// reaches under the protocol to check the guard).
	rogue := &wire.Message{
		Type: wire.TypeInit, Sender: 0, Initiator: 0,
		Instance: d.Peers[0].Instance() + 7,
		Seq:      d.Peers[0].SeqOf(0), Round: 1, HasValue: true, Value: value(0xEE),
	}
	probeStart := func() {
		_ = d.Peers[0].Multicast(nil, rogue, 0)
	}
	d.Sim.ScheduleAfter(0, probeStart)
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < n; i++ {
		res, ok := engines[i].Result(0)
		if !ok {
			t.Fatalf("peer %d undecided", i)
		}
		if res.Accepted {
			t.Fatalf("peer %d accepted a cross-instance message", i)
		}
	}
}

func TestEchoWithoutValueIgnored(t *testing.T) {
	// Structurally invalid protocol messages (ECHO with no value, INIT
	// where sender != initiator) are discarded without effect.
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	engines := buildEngines(t, d, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
	inject := func() {
		noValue := &wire.Message{
			Type: wire.TypeEcho, Sender: 1, Initiator: 0,
			Instance: d.Peers[1].Instance(),
			Seq:      d.Peers[1].SeqOf(0), Round: 1,
		}
		_ = d.Peers[1].Multicast(nil, noValue, 0)
		impersonation := &wire.Message{
			Type: wire.TypeInit, Sender: 2, Initiator: 0,
			Instance: d.Peers[2].Instance(),
			Seq:      d.Peers[2].SeqOf(0), Round: 1, HasValue: true, Value: value(0xDD),
		}
		_ = d.Peers[2].Multicast(nil, impersonation, 0)
	}
	d.Sim.ScheduleAfter(0, inject)
	startAll(d, engines)
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		res, ok := engines[i].Result(0)
		if ok && res.Accepted {
			t.Fatalf("peer %d accepted from malformed messages: %+v", i, res)
		}
	}
}
