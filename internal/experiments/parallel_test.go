package experiments

import (
	"bytes"
	"runtime"
	"testing"
)

// renderAll renders a table to a string for byte-wise comparison.
func renderAll(t *testing.T, tbl *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestSweepsIdenticalAcrossWorkerCounts pins the sweep engine's
// determinism contract: for a fixed seed, the rendered table of a sweep
// is byte-for-byte identical whether the points ran serially
// (GOMAXPROCS=1) or on a parallel worker pool (GOMAXPROCS=4). Exercised
// on a per-point sweep (fig2a), a flattened multi-job table (ablate),
// and the per-epoch bias sweep — the three sweep shapes the engine
// supports.
func TestSweepsIdenticalAcrossWorkerCounts(t *testing.T) {
	sweeps := []struct {
		name string
		run  func(Config) (*Table, error)
	}{
		{"fig2a", Fig2a},
		{"ablate", Ablate},
		{"bias", Bias},
	}
	for _, sw := range sweeps {
		sw := sw
		t.Run(sw.name, func(t *testing.T) {
			prev := runtime.GOMAXPROCS(1)
			t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
			serial, err := sw.run(cfg())
			if err != nil {
				t.Fatal(err)
			}
			runtime.GOMAXPROCS(4)
			par, err := sw.run(cfg())
			if err != nil {
				t.Fatal(err)
			}
			if got, want := renderAll(t, par), renderAll(t, serial); got != want {
				t.Fatalf("%s differs between worker counts:\n-- serial --\n%s\n-- parallel --\n%s", sw.name, want, got)
			}
		})
	}
}
