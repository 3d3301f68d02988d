package chaos

import (
	"fmt"
	"testing"
)

// BenchmarkChaosRun times whole chaos runs, the unit the invariant sweeps
// repeat thousands of times: each iteration is RunERB on a fresh
// deployment under the schedule Generate draws for its seed, then
// CheckERB, at the maximal bound t < N/2. Most of a run at these sizes is
// building the deployment, so runs/s and allocs/op follow what a cold
// deployment costs.
func BenchmarkChaosRun(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				seed := int64(n)*10_000 + int64(i%64) + 1
				o, err := RunERB(seed, n, (n-1)/2)
				if err != nil {
					b.Fatalf("seed %d: %v", seed, err)
				}
				if err := CheckERB(o); err != nil {
					b.Fatalf("seed %d: %v", seed, err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "runs/s")
		})
	}
}
