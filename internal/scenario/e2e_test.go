package scenario

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"sgxp2p/internal/chaos"
	"sgxp2p/internal/obsplane"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
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

// nodeBin builds cmd/p2pnode once per test binary, into a temporary
// directory TestMain removes when the tests are done.
var nodeBinOnce struct {
	sync.Once
	dir  string
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if nodeBinOnce.dir != "" {
		os.RemoveAll(nodeBinOnce.dir)
	}
	os.Exit(code)
}

func nodeBin(t *testing.T) string {
	t.Helper()
	nodeBinOnce.Do(func() {
		nodeBinOnce.dir, nodeBinOnce.err = os.MkdirTemp("", "p2pnode-bin-*")
		if nodeBinOnce.err != nil {
			return
		}
		nodeBinOnce.path, nodeBinOnce.err = BuildNodeBin(nodeBinOnce.dir)
	})
	if nodeBinOnce.err != nil {
		t.Fatal(nodeBinOnce.err)
	}
	return nodeBinOnce.path
}

// runCase orchestrates one manifest testcase end-to-end and fails the
// test on any unmet invariant, dumping the report for diagnosis, or on
// telemetry a run must always leave (checkTelemetry).
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
	checkTelemetry(t, report)
	return report
}

// checkTelemetry asserts what every live run records without being asked
// (merged.jsonl's schema check is the trace-consistency invariant): no
// gap in any connection's sequence, the probe gauges of every node and
// the runner's ingest lag in aggregate.jsonl, and complete cross-process
// span chains in merged.jsonl.
func checkTelemetry(t *testing.T, report *RunReport) {
	t.Helper()
	if report.StreamGaps != 0 {
		t.Fatalf("%d gaps in the control streams of a clean run", report.StreamGaps)
	}
	f, err := os.Open(filepath.Join(filepath.Dir(report.MergedPath), "aggregate.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	gauged, lagged := 0, 0
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var row struct {
			Node    *int               `json:"node"`
			Metrics map[string]float64 `json:"metrics"`
			LagMax  int64              `json:"ingest_lag_max_ns"`
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if _, ok := row.Metrics["gauge obs_goroutines"]; ok {
			gauged++
		}
		if row.Node == nil && row.LagMax > 0 {
			lagged++
		}
	}
	if gauged != report.N || lagged == 0 {
		t.Fatalf("aggregate.jsonl: probe gauges of %d/%d nodes, %d rounds with an ingest lag", gauged, report.N, lagged)
	}
	g := obsplane.Reconstruct(readTrace(t, report.MergedPath))
	complete := 0
	for i := range g.Spans {
		if g.Spans[i].Complete() {
			complete++
		}
	}
	if complete == 0 {
		t.Fatalf("no complete cross-process span chain among %d spans of merged.jsonl", len(g.Spans))
	}
}

// matchSimnet is the live-versus-simnet differential: the testcase of a
// passed live run (manifest's report.Testcase) runs once more on simnet's
// fault engine (chaos.RunERBSchedule or RunERNGSchedule, by the run's
// mode). Both worlds build their protocols through deploy's instance
// catalogue and execute the same flips on the same per-node OS, so they
// agree on which nodes are byzantine, and every honest node's accepted
// flag and decision round in every live epoch equal simnet's. Values are
// not compared: a live enclave draws its own randomness, a live
// initiator sends the manifest's message. No process may be killed or
// relaunched. crash-restart and slow-link have no differential: simnet
// has no multi-epoch relaunch and no link shaping.
func matchSimnet(t *testing.T, report *RunReport, manifest string) {
	t.Helper()
	tc, err := repoManifest(t, manifest).Case(report.Testcase)
	if err != nil {
		t.Fatal(err)
	}
	var sim *chaos.Outcome
	if mode := report.Params.Mode; mode == "erb" {
		sim, err = chaos.RunERBSchedule(1, report.N, report.Params.T, &tc.Faults)
	} else {
		sim, err = chaos.RunERNGSchedule(1, report.N, report.Params.T, mode == "erng-opt", &tc.Faults)
	}
	if err != nil {
		t.Fatal(err)
	}
	for i, node := range report.Nodes {
		if node.Crashed || node.Restarts != 0 {
			t.Fatalf("node %d was killed or relaunched: %+v", i, node)
		}
		simNode := sim.Nodes[i]
		if node.Byz == simNode.Honest {
			t.Fatalf("node %d: live byzantine=%v, simnet honest=%v", i, node.Byz, simNode.Honest)
		}
		if node.Byz {
			continue
		}
		for _, live := range node.Result.Epochs {
			if live.Accepted != simNode.Accepted || live.Round != simNode.Round {
				t.Errorf("node %d epoch %d: live accepted=%v in round %d, simnet accepted=%v in round %d",
					i, live.Epoch, live.Accepted, live.Round, simNode.Accepted, simNode.Round)
			}
		}
	}
}

// TestScenarioHonestERB runs the honest-sweep manifest's testcase at a
// small fleet size: real processes, real TCP, the runner's barrier, and
// central agreement/termination/trace invariants; both epochs match a
// fault-free simnet run, and the run leaves its whole telemetry
// (checkTelemetry: no gaps, probe gauges, complete span chains).
func TestScenarioHonestERB(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	report := runCase(t, "honest-sweep.json", "erb-honest", 4, map[string]string{
		"delta": "250ms", "epochs": "2",
	})
	for _, node := range report.Nodes {
		if node.Result == nil || len(node.Result.Epochs) != 2 {
			t.Fatalf("node %d result %+v", node.ID, node.Result)
		}
	}
	matchSimnet(t, report, "honest-sweep.json")
}

// TestScenarioLiveStream runs a one-epoch honest ERB fleet and checks
// what arrives over the control connections while it runs: every node's
// telemetry stream whole (checkTelemetry: no gaps, probe gauges, complete
// span chains in merged.jsonl) and every node's one-epoch result.
// Streaming is no mode: the same assertions hold for every fleet test,
// this one isolates them on the shortest live run.
func TestScenarioLiveStream(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	report := runCase(t, "honest-sweep.json", "erb-honest", 4, map[string]string{
		"delta": "250ms", "epochs": "1",
	})
	for _, node := range report.Nodes {
		if node.Result == nil || len(node.Result.Epochs) != 1 {
			t.Fatalf("node %d result %+v", node.ID, node.Result)
		}
	}
}

// TestScenarioCrashRestart runs the crash-restart manifest: its faults
// SIGKILL node 4 at round 10, mid-epoch 1, and a relaunched incarnation
// (same identity, same address, re-derived keys) rejoins at epoch 2 — the
// restart lifecycle exercised across real process boundaries. The killed
// incarnation still leaves its evidence: the barrier read its connection
// to EOF and wrote whole lines up to its exporter's last drain, so
// trace-4-0.jsonl parses strictly and its events are in the merged
// archive; and the relaunch's sequence, which starts again at 1 on its
// own connection, is no gap.
func TestScenarioCrashRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	// A longer Δ than the manifest default: the test suite shares the
	// machine with every other package's tests, and a starved process
	// that misses a whole round window fails its epoch legitimately.
	report := runCase(t, "crash-restart.json", "erb-crash-restart", 0, map[string]string{
		"delta": "300ms",
	})
	restarted := report.Nodes[4]
	if !restarted.Crashed || restarted.Restarts != 1 {
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
	if report.StreamGaps != 0 {
		t.Fatalf("%d stream gaps across node 4's incarnations, want 0", report.StreamGaps)
	}
	// One skew row per epoch and round: 3 epochs of the 4 rounds ERB runs
	// at t = 2, the crashed epoch's rows short of node 4.
	f, err := os.Open(filepath.Join(filepath.Dir(report.MergedPath), "aggregate.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows := map[[2]int]bool{}
	for sc := bufio.NewScanner(f); sc.Scan(); {
		var row struct {
			Node         *int
			Epoch, Round int
		}
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			t.Fatal(err)
		}
		if row.Node == nil {
			rows[[2]int{row.Epoch, row.Round}] = true
		}
	}
	for e := range 3 {
		for r := 1; r <= 4; r++ {
			if !rows[[2]int{e, r}] {
				t.Errorf("aggregate.jsonl has no skew row for epoch %d round %d", e, r)
			}
		}
	}
	if len(rows) != 12 {
		t.Fatalf("aggregate.jsonl has %d skew rows, want 12: %v", len(rows), rows)
	}
}

// TestScenarioChainMatchesSimnet runs the byzantine-chain manifest as a
// fleet of n = 7 processes under the differential (matchSimnet): the two
// flips land on the same nodes in both worlds, and so do the honest
// decisions and rounds. A flip is the node's own: merged.jsonl holds one
// flip event for each chain member.
func TestScenarioChainMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	report := runCase(t, "byzantine-chain.json", "erb-chain", 7, map[string]string{"delta": "300ms"})
	matchSimnet(t, report, "byzantine-chain.json")
	flips := map[wire.NodeID]int{}
	for _, ev := range readTrace(t, report.MergedPath) {
		if ev.Kind == telemetry.KindFlip {
			flips[ev.Node]++
		}
	}
	if len(flips) != 2 || flips[0] != 1 || flips[1] != 1 {
		t.Fatalf("flip events per node in merged.jsonl = %v, want one each for nodes 0 and 1", flips)
	}
}

// TestScenarioBeaconOptMatchesSimnet runs the optimized beacon live, the
// beacon-opt manifest at n = 16 (Algorithm 6's fallback cluster, node 0
// omitting everything), under the differential.
func TestScenarioBeaconOptMatchesSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a process fleet")
	}
	report := runCase(t, "beacon-opt.json", "erng-opt-omit", 16, map[string]string{"delta": "300ms"})
	matchSimnet(t, report, "beacon-opt.json")
}
