package chaos

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// exportTrace renders an outcome's telemetry stream as JSONL bytes.
func exportTrace(t *testing.T, o *Outcome) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := o.Trace.ExportJSONL(&buf); err != nil {
		t.Fatalf("export: %v", err)
	}
	return buf.Bytes()
}

// TestTraceDeterministic replays the same chaos seed twice per cluster
// size and requires byte-identical JSONL exports — the property
// `p2ptrace -diff` and the obs-smoke target stand on.
func TestTraceDeterministic(t *testing.T) {
	for _, tc := range erbCases {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("erb/n%d/seed%d", tc.n, seed), func(t *testing.T) {
				a, err := RunERB(seed, tc.n, tc.t)
				if err != nil {
					t.Fatal(err)
				}
				b, err := RunERB(seed, tc.n, tc.t)
				if err != nil {
					t.Fatal(err)
				}
				ja, jb := exportTrace(t, a), exportTrace(t, b)
				if len(ja) == 0 {
					t.Fatal("empty trace")
				}
				if !bytes.Equal(ja, jb) {
					line, la, lb, _ := telemetry.DiffLines(bytes.NewReader(ja), bytes.NewReader(jb))
					t.Fatalf("same seed diverged at line %d:\n  %s\n  %s", line, la, lb)
				}
				if a.Trace.Hash() != b.Trace.Hash() {
					t.Fatal("equal traces, unequal hashes")
				}
			})
		}
	}

	// ERNG paths share the tracer plumbing but exercise the beacon kinds.
	for _, optimized := range []bool{false, true} {
		t.Run(fmt.Sprintf("erng/opt=%v", optimized), func(t *testing.T) {
			a, err := RunERNG(5, 9, 2, optimized)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RunERNG(5, 9, 2, optimized)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(exportTrace(t, a), exportTrace(t, b)) {
				t.Fatal("same seed diverged")
			}
		})
	}
}

// TestTracedChaosOnLanes replays traced and metered chaos runs with the
// simulator's workers arriving at the first event of every window, so
// that every window of two lanes or more fires on them, and requires the
// JSONL export, the Prometheus text and the stream hash of the same run on
// one goroutine: what a run records does not depend on where its events
// fire. Run it with -cpu 1,2,4.
func TestTracedChaosOnLanes(t *testing.T) {
	opt, err := deploy.LookupKind("erng-opt")
	if err != nil {
		t.Fatal(err)
	}
	optRounds, err := opt.Rounds(9, 2)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		seed  int64
		n, t  int
		sched *Schedule
		mode  string
	}{
		{"erb/partition", 11, 9, 4,
			NewSchedule().Partition([][]wire.NodeID{{0, 1, 2, 5, 6, 7, 8}, {3, 4}}, 1, 3), "erb"},
		{"erb/delay-drain", 23, 9, 4,
			NewSchedule().FlipBehavior(1, 1, adversary.DelayAll()), "erb"},
		{"erng/basic", 7, 9, 4, Generate(7, 9, 4, 6), "erng"},
		{"erng/optimized", 1, 9, 2, Generate(1, 9, 2, optRounds), "erng-opt"},
	}
	type record struct {
		jsonl, prom []byte
		hash        uint64
	}
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
			replay := func(procs int) (record, uint64) {
				runtime.GOMAXPROCS(procs)
				h, err := arm(tc.seed, tc.n, tc.t, tc.sched)
				if err != nil {
					t.Fatal(err)
				}
				h.d.Sim.ArriveAt(0)
				o, err := h.run(tc.mode)
				if err != nil {
					t.Fatal(err)
				}
				if o.Schedule == "fault-free" || o.Stats == (EngineStats{}) {
					t.Fatalf("schedule %s did nothing: %+v", o.Schedule, o.Stats)
				}
				var prom bytes.Buffer
				if err := o.Metrics.ExportPrometheus(&prom); err != nil {
					t.Fatal(err)
				}
				return record{exportTrace(t, o), prom.Bytes(), o.Trace.Hash()}, h.d.Sim.ParallelWindows()
			}
			one, _ := replay(1)
			got, windows := replay(procs)
			if procs > 1 && windows == 0 {
				t.Fatalf("GOMAXPROCS=%d fired no window on workers", procs)
			}
			if !bytes.Equal(one.jsonl, got.jsonl) {
				line, la, lb, _ := telemetry.DiffLines(bytes.NewReader(one.jsonl), bytes.NewReader(got.jsonl))
				t.Fatalf("GOMAXPROCS=%d trace diverged from GOMAXPROCS=1 at line %d:\n  %s\n  %s", procs, line, la, lb)
			}
			if !bytes.Equal(one.prom, got.prom) {
				line, la, lb, _ := telemetry.DiffLines(bytes.NewReader(one.prom), bytes.NewReader(got.prom))
				t.Fatalf("GOMAXPROCS=%d metrics diverged from GOMAXPROCS=1 at line %d:\n  %s\n  %s", procs, line, la, lb)
			}
			if one.hash != got.hash {
				t.Fatalf("GOMAXPROCS=%d stream hash %#x, GOMAXPROCS=1 %#x", procs, got.hash, one.hash)
			}
		})
	}
}

// TestTraceSeedsDiverge is the sanity converse: different seeds must not
// produce the same stream (a constant trace would vacuously pass the
// determinism test).
func TestTraceSeedsDiverge(t *testing.T) {
	a, err := RunERB(1, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunERB(2, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(exportTrace(t, a), exportTrace(t, b)) {
		t.Fatal("different seeds produced identical traces")
	}
}

// TestTraceValidates runs every exported trace through the strict
// validator: schema, known kinds, monotone timestamps.
func TestTraceValidates(t *testing.T) {
	o, err := RunERB(7, 9, 4) // seed 7 schedules a crash and restart
	if err != nil {
		t.Fatal(err)
	}
	raw := exportTrace(t, o)
	count, err := telemetry.ValidateJSONL(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if uint64(count) != o.Events {
		t.Fatalf("validated %d events, outcome says %d", count, o.Events)
	}
	if o.Stats.Crashes == 0 || o.Stats.Restarts == 0 {
		t.Fatalf("seed 7 no longer schedules crash+restart: %+v", o.Stats)
	}
	// The schedule's faults appear in the stream as their telemetry kinds.
	text := string(raw)
	for _, want := range []string{`"kind":"crash"`, `"kind":"restart"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("trace missing %s", want)
		}
	}
}

// TestViolationDumpsFlight checks the failure path: an invariant
// violation's error message must name the node, its last round, and
// include its flight-recorder timeline.
func TestViolationDumpsFlight(t *testing.T) {
	o, err := RunERB(11, 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	var node wire.NodeID
	for _, no := range o.Nodes {
		if no.LastRound > 0 {
			node = no.Node
			break
		}
	}
	verr := o.violation("agreement", node, "synthetic failure on node %d", node)
	msg := verr.Error()
	wantHeader := fmt.Sprintf("flight recorder, node %d (last round %d):", node, o.Trace.LastRound(node))
	for _, want := range []string{
		"chaos: agreement violated",
		fmt.Sprintf("synthetic failure on node %d", node),
		wantHeader,
		"  r", // at least one flight-recorder line
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("violation message missing %q:\n%s", want, msg)
		}
	}
}
