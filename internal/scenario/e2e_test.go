package scenario

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sgxp2p/internal/telemetry"
)

// readTrace strictly parses one JSONL trace file.
func readTrace(t *testing.T, path string) []telemetry.Event {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		t.Fatalf("%s: %v", filepath.Base(path), err)
	}
	return events
}

// nodeBin builds cmd/p2pnode once per test binary.
var nodeBinOnce struct {
	sync.Once
	path string
	err  error
}

func nodeBin(t *testing.T) string {
	t.Helper()
	nodeBinOnce.Do(func() {
		dir, err := os.MkdirTemp("", "p2pnode-bin-*")
		if err != nil {
			nodeBinOnce.err = err
			return
		}
		nodeBinOnce.path, nodeBinOnce.err = BuildNodeBin(dir)
	})
	if nodeBinOnce.err != nil {
		t.Fatal(nodeBinOnce.err)
	}
	return nodeBinOnce.path
}

// runCase orchestrates one manifest testcase end-to-end and fails the
// test on any unmet invariant, dumping the report for diagnosis.
func runCase(t *testing.T, manifestName, caseName string, instances int, overrides map[string]string) *RunReport {
	t.Helper()
	m := repoManifest(t, manifestName)
	tc, err := m.Case(caseName)
	if err != nil {
		t.Fatal(err)
	}
	params, err := tc.ResolveParams(overrides)
	if err != nil {
		t.Fatal(err)
	}
	report, err := Run(RunConfig{
		NodeBin:   nodeBin(t),
		Testcase:  tc,
		Params:    params,
		Instances: instances,
		OutDir:    t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, inv := range report.Invariants {
		t.Logf("%s: invariant %s: ok=%v %s", tc.Name, inv.Name, inv.OK, inv.Detail)
	}
	if !report.Passed {
		for _, node := range report.Nodes {
			if node.FailDetail != "" {
				t.Logf("node %d FAIL: %s", node.ID, node.FailDetail)
			}
		}
		t.Fatalf("scenario %s did not pass", tc.Name)
	}
	return report
}

// TestScenarioHonestERB runs the honest-sweep manifest's testcase at a
// small fleet size: real processes, real TCP, the runner's barrier, and
// central agreement/termination/trace invariants.
func TestScenarioHonestERB(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	report := runCase(t, "honest-sweep.toml", "erb-honest", 4, map[string]string{
		"delta": "250ms", "epochs": "2",
	})
	for _, node := range report.Nodes {
		if node.Result == nil || len(node.Result.Epochs) != 2 {
			t.Fatalf("node %d result %+v", node.ID, node.Result)
		}
	}
}

// TestScenarioCrashRestart runs the crash-restart manifest: node 4 is
// SIGKILLed mid-epoch 1 and a relaunched incarnation (same identity,
// same address, re-derived keys) rejoins at epoch 2 — the PR 3 restart
// lifecycle exercised across real process boundaries. The run is not
// streamed, and the killed incarnation still leaves its evidence: its
// exporter appended whole lines up to its last drain, so trace-4-0.jsonl
// parses strictly and its events are in the merged archive.
func TestScenarioCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	// A longer Δ than the manifest default: the test suite shares the
	// machine with every other package's tests, and a starved process
	// that misses a whole round window fails its epoch legitimately.
	report := runCase(t, "crash-restart.toml", "erb-crash-restart", 0, map[string]string{
		"delta": "300ms",
	})
	restarted := report.Nodes[4]
	if !restarted.Crashed || !restarted.Restarted {
		t.Fatalf("node 4 outcome %+v", restarted)
	}
	if restarted.Result == nil {
		t.Fatal("restarted node wrote no result")
	}
	if first := restarted.Result.Epochs[0].Epoch; first != 2 {
		t.Fatalf("restarted node's first epoch %d, want 2", first)
	}

	killed := readTrace(t, filepath.Join(filepath.Dir(report.MergedPath), traceName(4, 0)))
	if len(killed) == 0 || len(restarted.TracePaths) != 2 {
		t.Fatalf("SIGKILLed incarnation left %d events; node 4 trace files %v, want both incarnations", len(killed), restarted.TracePaths)
	}
	merged := make(map[telemetry.Event]bool)
	for _, ev := range readTrace(t, report.MergedPath) {
		merged[ev] = true
	}
	for _, ev := range killed {
		if !merged[ev] {
			t.Fatalf("event %+v of the SIGKILLed incarnation is not in merged.jsonl", ev)
		}
	}
}
