package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sgxp2p/internal/obsplane"
)

// TestScenarioLiveStream runs the honest ERB case with the live
// observability plane on: every node streams its telemetry and metric
// deltas over the control connection while running. The stream and the
// trace files are fed by one exporter, so there is nothing to reconcile:
// the test asserts the stream arrived whole (no sequence gaps), that the
// aggregate view and probe gauges came in over it, and that the run's one
// event archive, merged.jsonl, carries reconstructable span hops.
func TestScenarioLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	m := repoManifest(t, "honest-sweep.toml")
	tc, err := m.Case("erb-honest")
	if err != nil {
		t.Fatal(err)
	}
	params, err := tc.ResolveParams(map[string]string{"delta": "250ms", "epochs": "1"})
	if err != nil {
		t.Fatal(err)
	}
	outDir := t.TempDir()
	report, err := Run(RunConfig{
		NodeBin:   nodeBin(t),
		Testcase:  tc,
		Params:    params,
		Instances: 4,
		OutDir:    outDir,
		Stream:    true,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range report.Invariants {
		t.Logf("invariant %s: ok=%v %s", inv.Name, inv.OK, inv.Detail)
	}
	if !report.Passed {
		t.Fatal("live-stream scenario did not pass")
	}
	if report.StreamGaps != 0 {
		t.Fatalf("%d gaps in the live streams of a clean run", report.StreamGaps)
	}

	aggData, err := os.ReadFile(filepath.Join(outDir, "aggregate.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(aggData), "obs_goroutines") {
		t.Fatal("aggregate.jsonl carries no streamed probe gauges")
	}
	// The archive carries the span hops of every process: cross-process
	// chains reconstruct from it.
	g := obsplane.Reconstruct(readTrace(t, report.MergedPath))
	if len(g.Spans) == 0 {
		t.Fatal("no causal spans reconstructable from merged.jsonl")
	}
	complete := 0
	for i := range g.Spans {
		if g.Spans[i].Complete() {
			complete++
		}
	}
	if complete == 0 {
		t.Fatal("no complete cross-process span chains in merged.jsonl")
	}
}
