package erng_test

import (
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

func TestOptimizedChosenOmittedToSome(t *testing.T) {
	// Byzantine cluster members whose CHOSEN announcements reach only part
	// of the network create divergent cluster views; the FINAL majority
	// rule must still converge all honest nodes onto one output.
	const n, byz = 30, 9
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 81,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) >= byz {
				return tr
			}
			// Drop to odd-numbered destinations only: half the network
			// never learns these nodes' cluster membership.
			return adversary.Wrap(id, tr, adversary.OmitTo(func(dst wire.NodeID) bool {
				return dst%2 == 1
			}), int64(id))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	results, protos := runOptimized(t, d, byz, erng.ModeFallback, 0)
	// Views may differ in size across nodes...
	sizes := make(map[int]bool)
	for i := byz; i < n; i++ {
		sizes[len(protos[i].ClusterView())] = true
	}
	// ...but the decisions must not.
	common := checkCommon(t, results[byz:])
	if !common.OK {
		t.Fatal("divergent cluster views forced bottom in a runnable configuration")
	}
}

func TestOptimizedRejectsStaleEpochMessages(t *testing.T) {
	// Replay a full recorded epoch into the next one: all stale CHOSEN /
	// INIT / ECHO / FINAL envelopes must be discarded (P6), leaving the
	// second epoch's output intact and fresh.
	const n, byz = 12, 4
	oses := make(map[wire.NodeID]*adversary.OS, n)
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 82,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			os := adversary.Wrap(id, tr, nil, int64(id)) // honest recorder
			oses[id] = os
			return os
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	first, _ := runOptimized(t, d, byz, erng.ModeFallback, 0)
	firstCommon := checkCommon(t, first)
	for _, p := range d.Peers {
		p.BumpSeqs()
	}
	// Second epoch with every node's first-epoch tape replayed at start.
	d.Sim.ScheduleAfter(0, func() {
		for _, os := range oses {
			os.ReplayTape()
		}
	})
	second, _ := runOptimized(t, d, byz, erng.ModeFallback, 0)
	secondCommon := checkCommon(t, second)
	if !secondCommon.OK {
		t.Fatal("replayed tape broke the second epoch")
	}
	if secondCommon.Value == firstCommon.Value {
		t.Fatal("second epoch reproduced the first value (stale state accepted?)")
	}
}

func TestOptimizedClusterViewSorted(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 30, T: 10, Seed: 83})
	if err != nil {
		t.Fatal(err)
	}
	_, protos := runOptimized(t, d, 10, erng.ModeFallback, 0)
	view := protos[0].ClusterView()
	for i := 1; i < len(view); i++ {
		if view[i] <= view[i-1] {
			t.Fatalf("cluster view not strictly sorted: %v", view)
		}
	}
	if protos[0].String() == "" {
		t.Fatal("String() empty")
	}
}

func TestOptimizedGammaOverride(t *testing.T) {
	// An explicit gamma forces sampled mode on a mid-size network.
	const n, byz = 120, 40
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 84})
	if err != nil {
		t.Fatal(err)
	}
	results, protos := runOptimized(t, d, byz, erng.ModeSampled, 10)
	p := protos[0].Params()
	if p.Mode != erng.ModeSampled || p.Gamma != 10 {
		t.Fatalf("params %+v, want sampled gamma=10", p)
	}
	common := checkCommon(t, results)
	if !common.OK {
		t.Fatal("sampled run with explicit gamma output bottom")
	}
	if got := protos[0].Rounds(); got != 14 {
		t.Fatalf("rounds = %d, want gamma+4 = 14", got)
	}
}

func TestOptimizedNonChosenNeverInitiates(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 30, T: 10, Seed: 85})
	if err != nil {
		t.Fatal(err)
	}
	results, protos := runOptimized(t, d, 10, erng.ModeFallback, 0)
	common := checkCommon(t, results)
	chosen := make(map[wire.NodeID]bool)
	for i, pr := range protos {
		if pr.Chosen() {
			chosen[wire.NodeID(i)] = true
		}
	}
	for _, c := range common.Contributors {
		if !chosen[c] {
			t.Fatalf("contributor %d never joined the cluster", c)
		}
	}
}
