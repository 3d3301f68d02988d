package erng_test

import (
	"testing"

	"sgxp2p/internal/deploy"
)

// standingCases are the two epoch shapes the benchmark runs, each on a
// standing cluster: Algorithm 3 with the model sealer (erng_basic) and
// sampled Algorithm 6 with real crypto (beacon_opt). maxAllocs is what
// one epoch may allocate: the level the dense epoch state reached, plus
// slack for the first-use links a sampled epoch still opens.
var standingCases = []struct {
	name      string
	opts      deploy.Options
	optimized bool
	maxAllocs float64
}{
	{"basic-n32", deploy.Options{N: 32, T: 15, Seed: 1}, false, 500},
	{"optimized-n256", deploy.Options{N: 256, T: 85, Seed: 1, RealCrypto: true}, true, 6800},
}

// standingEpoch builds the deployment, runs warm-up epochs so pools and
// first links are in place, and returns a function that runs one more.
func standingEpoch(tb testing.TB, opts deploy.Options, optimized bool) func() {
	tb.Helper()
	d, err := deploy.New(opts)
	if err != nil {
		tb.Fatal(err)
	}
	run := func() {
		if _, err := d.Epoch(opts.T, optimized, nil); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		run()
	}
	return run
}

// TestStandingEpochAllocs pins what one standing-cluster epoch allocates
// in each shape: the per-node epoch state is sized from N once, so a map,
// a set hash or a result copy that comes back shows here as a count.
func TestStandingEpochAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("real-crypto deployment at N = 256")
	}
	for _, c := range standingCases {
		t.Run(c.name, func(t *testing.T) {
			got := testing.AllocsPerRun(5, standingEpoch(t, c.opts, c.optimized))
			t.Logf("%.0f allocations per epoch", got)
			if got > c.maxAllocs {
				t.Errorf("%.0f allocations per epoch, pinned at most %.0f", got, c.maxAllocs)
			}
		})
	}
}

// BenchmarkStandingEpoch times one epoch of each standing shape.
func BenchmarkStandingEpoch(b *testing.B) {
	for _, c := range standingCases {
		b.Run(c.name, func(b *testing.B) {
			run := standingEpoch(b, c.opts, c.optimized)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}
