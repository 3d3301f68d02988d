package chaos

import (
	"fmt"
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/parallel"
	"sgxp2p/internal/stats"
	"sgxp2p/internal/wire"
)

// The ERNG bias suite (Theorem 2): an adversary that suppresses up to t
// contributors via omission schedules must not bias the beacon output.
// Every contribution is drawn inside an enclave and committed (round 1)
// before the adversary can observe anything about it, so omitting a
// subset only removes uniform terms from the XOR — the result stays
// uniform. The suite runs ≥256 fixed-seed epochs per variant, each under
// a different omission schedule, and chi-squares the output distribution.

// chiSquareCritical is the rejection threshold for 16 buckets (df=15) at
// significance 0.001 — conservative enough that a correct implementation
// with fixed seeds never trips it, while a biased fold (e.g. dropping a
// contributor after seeing the partial XOR) lands far beyond it.
const chiSquareCritical = 37.70

// biasRun executes one beacon epoch under an omission schedule derived
// from the run index: run r suppresses k = r mod (t+1) contributors,
// rotating which nodes are silenced, and on odd runs silences them only
// toward the low half of the network (selective omission A3). It runs on
// a pool goroutine, so failures are returned, not Fataled.
func biasRun(run, n, tb int, optimized bool) (wire.Value, bool, error) {
	seed := int64(0xB1A5<<8) + int64(run)
	k := run % (tb + 1)
	sched := NewSchedule()
	for i := 0; i < k; i++ {
		node := wire.NodeID((run + i) % n)
		if run%2 == 1 && !optimized {
			// Selective omission (A3) toward the low half. Sound only for
			// the basic beacon: the optimized beacon's round-1 CHOSEN
			// announcements are not reliably broadcast, so selectively
			// omitting them splits the cluster view — the known gap pinned
			// by TestOptimizedSelectiveChosenSplit.
			half := wire.NodeID(n / 2)
			sched.FlipBehavior(node, 1, "omit-low", adversary.OmitTo(func(dst wire.NodeID) bool {
				return dst < half
			}))
		} else {
			sched.FlipBehavior(node, 1, "omit-all", adversary.OmitAll())
		}
	}
	o, err := RunERNGSchedule(seed, n, tb, optimized, sched)
	if err != nil {
		return wire.Value{}, false, fmt.Errorf("run %d (seed %d): %w", run, seed, err)
	}
	if err := CheckERNG(o); err != nil {
		return wire.Value{}, false, fmt.Errorf("run %d: %w", run, err)
	}
	for _, no := range o.Nodes {
		if no.Honest {
			return no.Value, no.Accepted, nil
		}
	}
	return wire.Value{}, false, fmt.Errorf("run %d: no honest node in outcome", run)
}

// checkUnbiased chi-squares the low nibble of the first output byte over
// all non-bottom epochs and bounds the per-bit bias of the full values.
func checkUnbiased(t *testing.T, label string, values []wire.Value) {
	t.Helper()
	counts := make([]int, 16)
	for _, v := range values {
		counts[v[0]&0x0f]++
	}
	chi2, err := stats.ChiSquareUniform(counts)
	if err != nil {
		t.Fatal(err)
	}
	if chi2 > chiSquareCritical {
		t.Errorf("%s: chi-square %.2f over %d epochs exceeds critical %.2f (df=15, α=0.001): output bits are biased; counts=%v",
			label, chi2, len(values), chiSquareCritical, counts)
	}
	bias, err := stats.BitBias(values)
	if err != nil {
		t.Fatal(err)
	}
	if limit := stats.BitBiasThreshold(len(values), 4); bias > limit {
		t.Errorf("%s: per-bit bias %.4f over %d epochs exceeds 4σ threshold %.4f",
			label, bias, len(values), limit)
	}
}

func testBias(t *testing.T, n, tb int, optimized bool, label string) {
	runs := 256
	if testing.Short() {
		runs = 64
	}
	type epoch struct {
		value wire.Value
		ok    bool
	}
	epochs, err := parallel.Map(runs, func(run int) (epoch, error) {
		v, ok, err := biasRun(run, n, tb, optimized)
		return epoch{value: v, ok: ok}, err
	})
	if err != nil {
		t.Fatal(err)
	}
	values := make([]wire.Value, 0, runs)
	bottoms := 0
	for _, e := range epochs {
		if !e.ok {
			bottoms++
			continue
		}
		values = append(values, e.value)
	}
	// The optimized beacon can output bottom on a degenerate cluster draw
	// (probability ~1e-3 per epoch); more than a few percent means the
	// omission schedules are knocking clusters out, which Theorem 2 does
	// not allow.
	if bottoms*20 > runs {
		t.Fatalf("%s: %d/%d epochs output bottom", label, bottoms, runs)
	}
	checkUnbiased(t, label, values)
}

// TestERNGBasicUnbiasedUnderOmission: unoptimized beacon, N=5, t=2.
func TestERNGBasicUnbiasedUnderOmission(t *testing.T) {
	testBias(t, 5, 2, false, "basic N=5 t=2")
}

// TestERNGOptimizedUnbiasedUnderOmission: cluster-sampled beacon, N=9,
// t=3 (fallback parameters for N < 256).
func TestERNGOptimizedUnbiasedUnderOmission(t *testing.T) {
	testBias(t, 9, 3, true, "optimized N=9 t=3")
}

// TestOptimizedSelectiveChosenSplit pins a gap the chaos engine
// surfaced: the optimized beacon's round-1 CHOSEN announcements are
// plain multicasts, not reliable broadcasts, and they carry no ACK
// threshold (receivers do not acknowledge CHOSEN, so P4 cannot punish a
// selective announcer). A byzantine OS that delivers its CHOSEN only to
// half the network therefore splits the cluster view: honest cluster
// members build their embedded ERB over different member sets and their
// FINAL sets can diverge, breaking beacon agreement even with t ≤ N/3.
// The basic beacon is immune — its membership is the static roster.
//
// This is inherited from Algorithm 6, whose analysis implicitly assumes
// every node observes the same Schosen; fixing it would mean reliably
// broadcasting cluster membership (an extra ERB round). Until then the
// divergence is pinned here so a future fix flips this test.
func TestOptimizedSelectiveChosenSplit(t *testing.T) {
	const seed = int64(0xB1A5<<8) + 59
	sched := NewSchedule()
	for _, node := range []wire.NodeID{5, 6, 7} {
		sched.FlipBehavior(node, 1, "omit-low", adversary.OmitTo(func(dst wire.NodeID) bool {
			return dst < 4
		}))
	}
	o, err := RunERNGSchedule(seed, 9, 3, true, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERNG(o); err == nil {
		t.Fatal("selective CHOSEN omission no longer splits the cluster view: " +
			"the known Algorithm 6 gap appears fixed — re-enable selective " +
			"omission for the optimized variant in the bias suite")
	}
	// The same suppression pattern done symmetrically (omit-all) must be
	// harmless: the announcers exclude themselves from the cluster
	// consistently at every observer.
	sym := NewSchedule()
	for _, node := range []wire.NodeID{5, 6, 7} {
		sym.FlipBehavior(node, 1, "omit-all", adversary.OmitAll())
	}
	o, err = RunERNGSchedule(seed, 9, 3, true, sym)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERNG(o); err != nil {
		t.Fatalf("symmetric omission of the same nodes must keep agreement: %v", err)
	}
}
