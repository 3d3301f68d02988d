package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fakeClock hands the recorder the listed instants, one per begin or end.
func fakeClock(ticks ...int64) func() time.Duration {
	i := 0
	return func() time.Duration {
		t := time.Duration(ticks[i])
		i++
		return t
	}
}

func TestRecorderSelfTimeNested(t *testing.T) {
	// op [0,100] { handler [10,60] { on_message [20,30], send [30,45] }, send [70,80] }
	rec := &recorder{keepOps: 1, clock: fakeClock(0, 10, 20, 30, 30, 45, 60, 70, 80, 100)}
	rec.begin(spOp, -1)
	rec.begin(spHandler, 3)
	rec.begin(spOnMessage, 3)
	rec.end()
	rec.begin(spSend, 3)
	rec.end()
	rec.end()
	rec.begin(spSend, 4)
	rec.end()
	rec.end()

	want := map[spanName]time.Duration{spOp: 40, spHandler: 25, spOnMessage: 10, spSend: 25}
	for name, d := range want {
		if rec.self[name] != d {
			t.Errorf("self[%s] = %d, want %d", spanNames[name], rec.self[name], d)
		}
	}
	if rec.count[spSend] != 2 || rec.spans() != 5 {
		t.Errorf("counts: send %d total %d, want 2 and 5", rec.count[spSend], rec.spans())
	}
	// The kept spans carry the same arithmetic, computed the slow way.
	offline := selfTimes(rec.kept)
	for name, d := range want {
		if offline[spanNames[name]] != d {
			t.Errorf("selfTimes[%s] = %d, want %d", spanNames[name], offline[spanNames[name]], d)
		}
	}
	if got := rec.kept[len(rec.kept)-1]; got.Parent != -1 || got.Name != "driver.op" {
		t.Errorf("last kept span = %+v, want the root", got)
	}
	if got := rec.kept[0]; got.Parent != 1 || got.Node != 3 {
		t.Errorf("first kept span = %+v, want on_message under the handler on node 3", got)
	}
}

func TestSelfTimesOverlappingChildren(t *testing.T) {
	// Children that overlap each other and overhang the parent must not be
	// subtracted twice: covered = [10,50] ∪ [90,100] = 50 of 100.
	spans := []span{
		{ID: 0, Parent: -1, Name: "p", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 40},
		{ID: 2, Parent: 0, Name: "b", Start: 30, End: 50},
		{ID: 3, Parent: 0, Name: "c", Start: 90, End: 120},
		{ID: 4, Parent: 1, Name: "d", Start: 15, End: 20},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{"p": 50, "a": 25, "b": 20, "c": 30, "d": 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[99-i] = float64(i + 1) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its argument in place")
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of three = %v, want 5", got)
	}
	if percentile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Error("empty input must read 0")
	}
}

func TestSegmentRate(t *testing.T) {
	// 11 calls of 2 ops: five segments of two calls, the eleventh dropped.
	// Segment walls 2,2,2,2,20 ms (one stalled), so the median segment
	// does 4 ops in 2 ms.
	calls := []time.Duration{1, 1, 1, 1, 1, 1, 1, 1, 10, 10, 500}
	for i := range calls {
		calls[i] *= time.Millisecond
	}
	if got := segmentRate(calls, 2, 5); math.Abs(got-2000) > 1e-9 {
		t.Errorf("segmentRate = %v, want 2000", got)
	}
	// Fewer calls than segments: each call is a segment.
	if got := segmentRate([]time.Duration{time.Second, 2 * time.Second, 4 * time.Second}, 1, 5); got != 0.5 {
		t.Errorf("segmentRate of three calls = %v, want 0.5", got)
	}
}

func TestSizeQuantiles(t *testing.T) {
	hist := map[int]uint64{110: 90, 1000: 9, 5000: 1}
	got := sizeQuantiles(hist, 10)
	want := []int{110, 110, 110, 110, 110, 110, 110, 110, 110, 1000}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("sizeQuantiles = %v, want %v", got, want)
	}
}

// TestBenchmarkJSONMatchesBinary keeps BENCHMARK.json and the metric and
// workload tables of the binary in step.
func TestBenchmarkJSONMatchesBinary(t *testing.T) {
	var def struct {
		benchmarkFile
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &def); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(def.Paths, []string{"bench"}) || !reflect.DeepEqual(def.Command, []string{"go", "run", "./bench"}) {
		t.Errorf("command %v paths %v", def.Command, def.Paths)
	}
	if def.RunSeconds < 1 || def.RunSeconds > 60 {
		t.Errorf("run_seconds %d", def.RunSeconds)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the binary", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the binary %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, got []boundedMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the binary", kind, len(got), len(want))
		}
		for i, m := range got {
			if (metricDef{m.Name, m.Unit, m.Better}) != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the binary %+v", kind, i, m, want[i])
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", def.EndToEnd, endToEnd, true)
	check("per_layer", def.PerLayer, perLayer, false)
}

// TestSmoke runs every workload at N=8 through both passes: every driver,
// shim and probe end to end, the correctness oracle, the driver-drift
// guard and the result line.
func TestSmoke(t *testing.T) {
	cfg := passConfig{seed: 7, limit: time.Hour, smoke: true}
	for _, s := range workloads {
		for _, traced := range []bool{false, true} {
			var out bytes.Buffer
			if err := runOne(&out, cfg, s.name, traced, ""); err != nil {
				t.Fatalf("%s traced=%v: %v", s.name, traced, err)
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s traced=%v: last line is not JSON: %v", s.name, traced, err)
			}
			if len(line) != 4 || string(line["correct"]) != "true" || string(line["failed"]) != "0" {
				t.Errorf("%s traced=%v: result line %s", s.name, traced, lines[len(lines)-1])
			}
			var got map[string]metric
			if err := json.Unmarshal(line["metrics"], &got); err != nil {
				t.Fatal(err)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(got) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", s.name, traced, len(got), len(defs))
			}
			for _, d := range defs {
				m, ok := got[d.name]
				if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s traced=%v: metric %s = %+v", s.name, traced, d.name, m)
				}
			}
			// Every metric is also printed by name with its unit.
			for _, d := range defs {
				if !strings.Contains(out.String(), "  "+d.name+" ") {
					t.Errorf("%s traced=%v: %s missing from the printed table", s.name, traced, d.name)
				}
			}
		}
	}
}

// TestSmokeSpansAccountForTheOp checks the recorder's running totals
// against the slow reference on real spans, and that together the layers
// account for the whole traced op.
func TestSmokeSpansAccountForTheOp(t *testing.T) {
	for _, s := range workloads {
		rec, cp := newRecorder(1<<30), newCapture()
		r := &run{spec: smoke(s), seed: 3, rec: rec, cap: cp}
		if err := r.setup(1, 1); err != nil {
			t.Fatal(err)
		}
		w, err := r.measure(time.Hour, smokeCalls)
		if err != nil || r.firstFail != nil {
			t.Fatalf("%s: %v %v", s.name, err, r.firstFail)
		}
		if len(rec.stack) != 0 {
			t.Errorf("%s: %d spans left open", s.name, len(rec.stack))
		}
		offline := selfTimes(rec.kept)
		var total time.Duration
		for name, d := range rec.self {
			total += d
			if offline[spanNames[name]] != d {
				t.Errorf("%s: self[%s] = %v online, %v offline", s.name, spanNames[name], d, offline[spanNames[name]])
			}
		}
		// The op span opens just before the call is timed and closes just
		// after, which shows on ops this small.
		if share := float64(total) / float64(w.wall); share < 0.9 || share > 1.1 {
			t.Errorf("%s: spans account for %.3f of the traced wall time", s.name, share)
		}
		if uint64(len(rec.kept)) != rec.spans() {
			t.Errorf("%s: kept %d of %d spans", s.name, len(rec.kept), rec.spans())
		}
	}
}

// TestDriftGuard makes the mirror differ from the public-API pass (it admits
// every request at once) and expects the guard to notice; identical passes
// pass.
func TestDriftGuard(t *testing.T) {
	s, _ := findWorkload("erb_mux")
	s = smoke(s)
	pass := func(s spec, traced bool) (*run, window) {
		r := &run{spec: s, seed: 1}
		if traced {
			r.rec, r.cap = newRecorder(0), newCapture()
		}
		if err := r.setup(1, 1); err != nil {
			t.Fatal(err)
		}
		w, err := r.measure(time.Hour, 2)
		if err != nil || r.firstFail != nil {
			t.Fatal(err, r.firstFail)
		}
		return r, w
	}
	api, wa := pass(s, false)
	tr, wt := pass(s, true)
	if err := drift(api, tr, wa, wt); err != nil {
		t.Errorf("identical passes: %v", err)
	}
	s.inFlight = s.perCall
	tr, wt = pass(s, true)
	if err := drift(api, tr, wa, wt); err == nil {
		t.Error("a mirror with a different admission window passed the guard")
	}
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		data, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	def := write("BENCHMARK.json", map[string]any{
		"workloads": []map[string]string{{"name": "w", "why": "x"}},
		"end_to_end": []map[string]any{
			{"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.10},
			{"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.07},
		},
	})
	res := func(ops, ms float64, failed int) results {
		return results{Workloads: map[string]workloadResult{"w": {
			Failed:   failed,
			EndToEnd: map[string]metric{"ops_per_s": {ops, "1/s"}, "op_ms_p50": {ms, "ms"}},
		}}}
	}
	a := write("a.json", res(100, 10, 0))
	for _, c := range []struct {
		name string
		b    results
		ok   bool
	}{
		{"within", res(91, 10.6, 0), true},
		{"better", res(150, 5, 0), true},
		{"throughput", res(89, 10, 0), false},
		{"latency", res(100, 10.8, 0), false},
		{"failed", res(100, 10, 1), false},
	} {
		var out bytes.Buffer
		err := compareFiles(&out, def, a, write(c.name+".json", c.b))
		if (err == nil) != c.ok {
			t.Errorf("%s: err = %v, want ok=%v\n%s", c.name, err, c.ok, out.String())
		}
		if !strings.Contains(out.String(), "ops_per_s") || !strings.Contains(out.String(), "10.00%") {
			t.Errorf("%s: table lacks the metric or its bound:\n%s", c.name, out.String())
		}
	}
	if err := compareFiles(&bytes.Buffer{}, def, a, write("empty.json", results{})); err == nil {
		t.Error("a result file without the workload must fail")
	}
}
