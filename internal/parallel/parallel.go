// Package parallel provides the bounded worker pool used by the
// deployment builder and the experiment sweep engine. The paper's
// evaluation parallelizes across 40 machines; our simulated reproduction
// parallelizes across cores instead, along the two axes that are
// embarrassingly independent:
//
//   - per-node setup work (enclave launch, attestation, pairwise
//     Diffie-Hellman link derivation), and
//   - per-data-point experiment sweeps (each point owns a private
//     simulator and network).
//
// Results are always written to index-distinct slots and errors are
// reported in index order, so for a fixed seed the outcome is identical
// for any pool size (GOMAXPROCS) — the determinism contract the equivalence tests
// in internal/deploy and internal/experiments pin down.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// ForEach runs fn(i) for every i in [0, n) on min(n, GOMAXPROCS)
// goroutines; with one, it runs serially on the calling goroutine.
// Indexes are claimed atomically, so the pool balances uneven work
// items. All items run even if some fail; the error for the lowest
// failing index is returned, which keeps the reported error independent
// of goroutine scheduling.
func ForEach(n int, fn func(i int) error) error {
	if n <= 0 {
		return nil
	}
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		// Serial path: stop at the first error like a plain loop would.
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		wg   sync.WaitGroup
		next atomic.Int64
	)
	errs := make([]error, n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Map runs fn(i) for every i in [0, n) on ForEach's pool and returns the
// results in index order. On error the first failure by index is
// returned and the results are discarded.
func Map[T any](n int, fn func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	err := ForEach(n, func(i int) error {
		v, ferr := fn(i)
		if ferr != nil {
			return ferr
		}
		out[i] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
