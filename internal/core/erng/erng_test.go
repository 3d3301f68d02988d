package erng_test

import (
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// basicHarness runs the unoptimized ERNG over a deployment and returns the
// per-node results.
func runBasic(t *testing.T, d *deploy.Deployment, byz int) []erng.Result {
	t.Helper()
	protos := make([]*erng.Basic, len(d.Peers))
	for i, p := range d.Peers {
		b, err := erng.NewBasic(p, byz)
		if err != nil {
			t.Fatalf("NewBasic(%d): %v", i, err)
		}
		protos[i] = b
		p.Start(b, b.Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	results := make([]erng.Result, len(protos))
	for i, b := range protos {
		res, ok := b.Result()
		if !ok {
			if d.Peers[i].Halted() {
				continue // churned out by P4; no decision expected
			}
			t.Fatalf("peer %d undecided", i)
		}
		results[i] = res
	}
	return results
}

func runOptimized(t *testing.T, d *deploy.Deployment, byz int, mode erng.Mode, gamma int) ([]erng.Result, []*erng.Optimized) {
	t.Helper()
	protos := make([]*erng.Optimized, len(d.Peers))
	for i, p := range d.Peers {
		o, err := erng.NewOptimized(p, byz, mode, gamma)
		if err != nil {
			t.Fatalf("NewOptimized(%d): %v", i, err)
		}
		protos[i] = o
		p.Start(o, o.Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	results := make([]erng.Result, len(protos))
	for i, o := range protos {
		res, ok := o.Result()
		if !ok {
			if d.Peers[i].Halted() {
				continue // churned out by P4; no decision expected
			}
			t.Fatalf("peer %d undecided", i)
		}
		results[i] = res
	}
	return results, protos
}

// checkCommon asserts all results agree on (OK, Value, Contributors) and
// returns the common result.
func checkCommon(t *testing.T, results []erng.Result) erng.Result {
	t.Helper()
	first := results[0]
	for i, r := range results[1:] {
		if r.OK != first.OK || r.Value != first.Value {
			t.Fatalf("node %d disagrees: (%v, %v) vs (%v, %v)", i+1, r.OK, r.Value, first.OK, first.Value)
		}
		if len(r.Contributors) != len(first.Contributors) {
			t.Fatalf("node %d contributor count %d vs %d", i+1, len(r.Contributors), len(first.Contributors))
		}
		for j := range r.Contributors {
			if r.Contributors[j] != first.Contributors[j] {
				t.Fatalf("node %d contributors %v vs %v", i+1, r.Contributors, first.Contributors)
			}
		}
	}
	return first
}

func TestBasicHonestAllAgree(t *testing.T) {
	const n, byz = 7, 3
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	results := runBasic(t, d, byz)
	common := checkCommon(t, results)
	if !common.OK {
		t.Fatal("honest run output bottom")
	}
	if len(common.Contributors) != n {
		t.Fatalf("contributors = %v, want all %d nodes", common.Contributors, n)
	}
	if common.Value.IsZero() {
		t.Fatal("output is zero (astronomically unlikely)")
	}
}

func TestBasicRoundsIsTPlusTwo(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 7, T: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	b, err := erng.NewBasic(d.Peers[0], 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := b.Rounds(); got != 5 {
		t.Fatalf("Rounds = %d, want t+2 = 5", got)
	}
	if _, err := erng.NewBasic(nil, 1); err == nil {
		t.Fatal("nil peer accepted")
	}
}

func TestBasicSilentByzantineExcluded(t *testing.T) {
	const n, byz = 7, 3
	silent := map[wire.NodeID]bool{0: true, 1: true}
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 32,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if !silent[id] {
				return tr
			}
			return adversary.Wrap(id, tr, adversary.OmitAll(), 1)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results := runBasic(t, d, byz)
	// Honest nodes are 2..6; check their agreement only.
	common := checkCommon(t, results[2:])
	if !common.OK {
		t.Fatal("run output bottom")
	}
	if len(common.Contributors) != n-2 {
		t.Fatalf("contributors = %v, want %d honest nodes", common.Contributors, n-2)
	}
	for _, c := range common.Contributors {
		if silent[c] {
			t.Fatalf("silent byzantine %d contributed", c)
		}
	}
}

func TestBasicSelectiveOmissionKeepsAgreement(t *testing.T) {
	const n, byz = 9, 4
	for seed := int64(0); seed < 8; seed++ {
		d, err := deploy.New(deploy.Options{
			N: n, T: byz, Seed: 40 + seed,
			Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
				if int(id) >= byz {
					return tr
				}
				mask := seed*13 + int64(id)*7
				return adversary.Wrap(id, tr, adversary.OmitTo(func(dst wire.NodeID) bool {
					return (mask>>(dst%8))&1 == 1
				}), seed)
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		results := runBasic(t, d, byz)
		common := checkCommon(t, results[byz:])
		if !common.OK {
			t.Fatalf("seed %d: honest nodes output bottom", seed)
		}
		// All honest contributions must be present (validity).
		have := make(map[wire.NodeID]bool, len(common.Contributors))
		for _, c := range common.Contributors {
			have[c] = true
		}
		for id := byz; id < n; id++ {
			if !have[wire.NodeID(id)] {
				t.Fatalf("seed %d: honest contribution %d missing", seed, id)
			}
		}
	}
}

func TestBasicDelayLookAheadNeutralized(t *testing.T) {
	// A4: byzantine node 0 holds all its outbound envelopes, "looks ahead",
	// and releases them in a later round. Its contribution must not enter
	// the final set of any honest node, and agreement must hold.
	const n, byz = 7, 3
	var os0 *adversary.OS
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 33,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if id != 0 {
				return tr
			}
			os0 = adversary.Wrap(id, tr, adversary.DelayAll(), 1)
			return os0
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Release mid-round-3 (stamps are round 1/2: all stale on arrival).
	d.Sim.Schedule(d.RoundDuration()*2+d.RoundDuration()/2, func() { os0.Release() })
	results := runBasic(t, d, byz)
	common := checkCommon(t, results[1:])
	if !common.OK {
		t.Fatal("honest majority output bottom")
	}
	for _, c := range common.Contributors {
		if c == 0 {
			t.Fatal("delayed (look-ahead) contribution was accepted")
		}
	}
}

func TestBasicFreshAcrossEpochs(t *testing.T) {
	const n, byz = 5, 2
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 34})
	if err != nil {
		t.Fatal(err)
	}
	first := checkCommon(t, runBasic(t, d, byz))
	for _, p := range d.Peers {
		p.BumpSeqs()
	}
	second := checkCommon(t, runBasic(t, d, byz))
	if first.Value == second.Value {
		t.Fatal("two epochs produced identical outputs")
	}
}

func TestOptimizedFallbackHonest(t *testing.T) {
	const n, byz = 30, 10
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	results, protos := runOptimized(t, d, byz, erng.ModeAuto, 0)
	common := checkCommon(t, results)
	if !common.OK {
		t.Fatal("honest fallback run output bottom")
	}
	if protos[0].Params().Mode != erng.ModeFallback {
		t.Fatalf("N=%d resolved to mode %v, want fallback", n, protos[0].Params().Mode)
	}
	// Contributors must be cluster members.
	cluster := make(map[wire.NodeID]bool)
	for _, id := range protos[0].ClusterView() {
		cluster[id] = true
	}
	for _, c := range common.Contributors {
		if !cluster[c] {
			t.Fatalf("contributor %d outside cluster %v", c, protos[0].ClusterView())
		}
	}
	// Fallback cluster should be roughly 2N/3.
	if got := len(protos[0].ClusterView()); got < n/3 || got > n {
		t.Fatalf("cluster size %d implausible for 2N/3 sampling", got)
	}
}

func TestOptimizedSampledHonest(t *testing.T) {
	const n, byz = 300, 100
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 36})
	if err != nil {
		t.Fatal(err)
	}
	results, protos := runOptimized(t, d, byz, erng.ModeSampled, 0)
	common := checkCommon(t, results)
	if !common.OK {
		t.Fatal("honest sampled run output bottom")
	}
	p := protos[0].Params()
	if p.Mode != erng.ModeSampled {
		t.Fatal("expected sampled mode")
	}
	cluster := len(protos[0].ClusterView())
	if cluster < p.Gamma || cluster > 6*p.Gamma {
		t.Fatalf("cluster size %d far from 2*gamma = %d", cluster, 2*p.Gamma)
	}
	// O(log N) rounds: far fewer than the basic protocol's t+2.
	if protos[0].Rounds() >= byz+2 {
		t.Fatalf("optimized rounds %d not below basic %d", protos[0].Rounds(), byz+2)
	}
}

func TestOptimizedWithByzantineOmitters(t *testing.T) {
	const n, byz = 30, 9 // t <= N/3
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 37,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) >= byz {
				return tr
			}
			return adversary.Wrap(id, tr, adversary.OmitProbabilistic(0.7, int64(id)), int64(id))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, _ := runOptimized(t, d, byz, erng.ModeFallback, 0)
	common := checkCommon(t, results[byz:])
	if !common.OK {
		t.Fatal("byzantine omitters forced bottom output")
	}
}

func TestOptimizedTrafficBelowBasic(t *testing.T) {
	const n, byz = 24, 8
	run := func(optimized bool) uint64 {
		d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 38})
		if err != nil {
			t.Fatal(err)
		}
		d.Net.ResetTraffic()
		if optimized {
			_, _ = runOptimized(t, d, byz, erng.ModeFallback, 0)
		} else {
			runBasic(t, d, byz)
		}
		return d.Net.Traffic().Bytes
	}
	basic := run(false)
	opt := run(true)
	if opt >= basic {
		t.Fatalf("optimized traffic %d not below basic %d", opt, basic)
	}
}

func TestResolveParamsValidation(t *testing.T) {
	if _, err := erng.ResolveParams(3, 1, erng.ModeAuto, 0); err == nil {
		t.Error("N=3 accepted")
	}
	if _, err := erng.ResolveParams(30, 11, erng.ModeAuto, 0); err == nil {
		t.Error("t > N/3 accepted")
	}
	if _, err := erng.ResolveParams(30, -1, erng.ModeAuto, 0); err == nil {
		t.Error("negative t accepted")
	}
	if _, err := erng.ResolveParams(16, 5, erng.ModeSampled, 8); err == nil {
		t.Error("sampled mode with absurd gamma for tiny N accepted")
	}
	p, err := erng.ResolveParams(1024, 341, erng.ModeAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mode != erng.ModeSampled {
		t.Fatalf("large N resolved to %v, want sampled", p.Mode)
	}
	if p.Rounds() != p.MaxClusterT+4 {
		t.Fatalf("Rounds = %d, want MaxClusterT+4 = %d", p.Rounds(), p.MaxClusterT+4)
	}
	small, err := erng.ResolveParams(30, 10, erng.ModeAuto, 0)
	if err != nil {
		t.Fatal(err)
	}
	if small.Mode != erng.ModeFallback {
		t.Fatalf("small N resolved to %v, want fallback", small.Mode)
	}
	if small.InitRange != 1 {
		t.Fatal("fallback must let every member initiate")
	}
}

func TestOptimizedDeterministicForSeed(t *testing.T) {
	run := func() erng.Result {
		d, err := deploy.New(deploy.Options{N: 30, T: 10, Seed: 39})
		if err != nil {
			t.Fatal(err)
		}
		results, _ := runOptimized(t, d, 10, erng.ModeFallback, 0)
		return checkCommon(t, results)
	}
	a, b := run(), run()
	if a.Value != b.Value || a.OK != b.OK {
		t.Fatal("same seed produced different outputs")
	}
}

func TestBasicTerminationTimeHonest(t *testing.T) {
	// Honest values are all accepted within ~2 rounds even though the
	// deadline is t+2; decisions carry the early timestamps.
	const n, byz = 9, 4
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 41, Delta: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	results := runBasic(t, d, byz)
	common := checkCommon(t, results)
	if !common.OK {
		t.Fatal("bottom output")
	}
	// With every instance accepted, nodes finalize early (the behaviour
	// behind the flat region of Fig. 2b): well before the t+2 deadline.
	deadline := time.Duration(byz+2) * 2 * time.Second
	for i, r := range results {
		if r.At >= deadline {
			t.Fatalf("node %d decided at %v, want early (< %v)", i, r.At, deadline)
		}
		if r.At > 3*2*time.Second {
			t.Fatalf("node %d decided at %v, want within ~2 rounds", i, r.At)
		}
	}
}
