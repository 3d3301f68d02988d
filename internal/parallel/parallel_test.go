package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// setProcs sets GOMAXPROCS — the pool size — for the rest of the test.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestWorkersResolution pins the pool size to min(n, GOMAXPROCS): every
// call parks until `want` calls are in flight at once, so a smaller pool
// times out and a larger one trips the in-flight ceiling.
func TestWorkersResolution(t *testing.T) {
	for _, tc := range []struct{ procs, n, want int }{
		{procs: 1, n: 10, want: 1},
		{procs: 3, n: 10, want: 3},
		{procs: 4, n: 2, want: 2},
	} {
		setProcs(t, tc.procs)
		var (
			mu             sync.Mutex
			inFlight, peak int
		)
		full := make(chan struct{})
		err := ForEach(tc.n, func(int) error {
			mu.Lock()
			inFlight++
			if inFlight > peak {
				peak = inFlight
				if peak == tc.want {
					close(full)
				}
			}
			mu.Unlock()
			defer func() { mu.Lock(); inFlight--; mu.Unlock() }()
			select {
			case <-full:
				return nil
			case <-time.After(5 * time.Second):
				return errors.New("pool never filled")
			}
		})
		if err != nil {
			t.Fatalf("procs=%d n=%d: %v (peak %d, want %d)", tc.procs, tc.n, err, peak, tc.want)
		}
		if peak != tc.want {
			t.Fatalf("procs=%d n=%d: %d calls in flight, want %d", tc.procs, tc.n, peak, tc.want)
		}
	}
}

func TestForEachCoversAllIndexes(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		setProcs(t, workers)
		const n = 100
		var hits [n]atomic.Int32
		if err := ForEach(n, func(i int) error {
			hits[i].Add(1)
			return nil
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

func TestForEachEmpty(t *testing.T) {
	if err := ForEach(0, func(int) error { return errors.New("must not run") }); err != nil {
		t.Fatal(err)
	}
}

func TestForEachReturnsLowestIndexError(t *testing.T) {
	// Regardless of scheduling, the error for the lowest failing index
	// wins, so sweeps report deterministically.
	for _, workers := range []int{1, 2, 8} {
		setProcs(t, workers)
		err := ForEach(50, func(i int) error {
			if i == 7 || i == 31 {
				return fmt.Errorf("fail %d", i)
			}
			return nil
		})
		if err == nil || err.Error() != "fail 7" {
			t.Fatalf("workers=%d: err = %v, want fail 7", workers, err)
		}
	}
}

func TestMapPreservesOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		setProcs(t, workers)
		out, err := Map(64, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestMapError(t *testing.T) {
	setProcs(t, 4)
	if _, err := Map(10, func(i int) (int, error) {
		if i == 3 {
			return 0, errors.New("boom")
		}
		return i, nil
	}); err == nil {
		t.Fatal("error swallowed")
	}
}
