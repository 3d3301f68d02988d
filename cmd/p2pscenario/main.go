// Command p2pscenario orchestrates declarative multi-process scenarios:
// it reads TOML manifests (scenarios/*.toml), spawns a fleet of p2pnode
// processes over real TCP, runs the readiness barrier, fires churn
// phases, collects every process's telemetry JSONL and result JSON, and
// asserts the cross-process invariants (agreement, termination rounds,
// trace consistency) centrally.
//
// Usage:
//
//	p2pscenario scenarios/honest-sweep.toml          # run all testcases (sweeps included)
//	p2pscenario -list scenarios/*.toml               # list testcases
//	p2pscenario -testcase erb-honest -instances 16 scenarios/honest-sweep.toml
//	p2pscenario -param epochs=3 -param delta=300ms scenarios/slow-link.toml
//	p2pscenario -stream -testcase erb-honest scenarios/honest-sweep.toml  # live plane on
//	p2pscenario -bench BENCH_scenario.json -bench-n 128   # live fig2a point vs simnet
//
// -stream turns on the live observability plane: every node streams its
// telemetry events (with causal span hops) and metric deltas over the
// control connection while running, and the runner reports per-round
// fleet percentiles live and writes aggregate.jsonl; the events
// themselves are in merged.jsonl, streamed or not.
// -profile arms pprof-on-violation captures for wedged nodes.
//
// The p2pnode binary is built automatically unless -node-bin points at a
// prebuilt one. Artifacts (per-node traces, results, logs, merged.jsonl)
// land in -out (kept) or a temp dir (removed unless -keep).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"sgxp2p/internal/experiments"
	"sgxp2p/internal/scenario"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2pscenario:", err)
		os.Exit(1)
	}
}

// paramFlags collects repeatable -param key=value overrides.
type paramFlags map[string]string

func (p paramFlags) String() string { return "" }
func (p paramFlags) Set(s string) error {
	key, val, found := strings.Cut(s, "=")
	if !found {
		return fmt.Errorf("-param wants key=value, got %q", s)
	}
	p[key] = val
	return nil
}

func run(args []string) error {
	fs := flag.NewFlagSet("p2pscenario", flag.ContinueOnError)
	params := paramFlags{}
	var (
		list      = fs.Bool("list", false, "list the manifests' testcases and exit")
		caseName  = fs.String("testcase", "", "run only this testcase")
		instances = fs.Int("instances", 0, "override the instance count (disables the sweep)")
		nodeBin   = fs.String("node-bin", "", "prebuilt p2pnode binary (default: go build it)")
		outDir    = fs.String("out", "", "artifact directory (default: temp dir)")
		keep      = fs.Bool("keep", false, "keep the artifact directory")
		benchOut  = fs.String("bench", "", "run the live fig2a cross-check and write this BENCH json")
		benchN    = fs.Int("bench-n", 128, "network size of the live bench point")
		stream    = fs.Bool("stream", false, "live observability plane: nodes stream telemetry+metrics during the run, the runner aggregates per-round fleet percentiles and writes aggregate.jsonl")
		profile   = fs.Bool("profile", false, "pprof-on-violation: wedged nodes get CPU+heap captures into <out>/profiles before the fleet is reaped")
	)
	fs.Var(params, "param", "parameter override key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benchOut == "" && fs.NArg() == 0 {
		return fmt.Errorf("no manifests given (and no -bench)")
	}

	manifests := make([]*scenario.Manifest, 0, fs.NArg())
	for _, path := range fs.Args() {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		m, err := scenario.ParseManifest(string(data))
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		manifests = append(manifests, m)
	}

	if *list {
		for _, m := range manifests {
			fmt.Printf("%s\n", m.Name)
			for _, tc := range m.Testcases {
				sweep := ""
				if len(tc.Sweep) > 0 {
					sweep = fmt.Sprintf(" sweep=%v", tc.Sweep)
				}
				fmt.Printf("  %-24s instances %d..%d (default %d)%s\n",
					tc.Name, tc.Instances.Min, tc.Instances.Max, tc.Instances.Default, sweep)
			}
		}
		return nil
	}

	if *benchOut == "" && *caseName != "" && !hasTestcase(manifests, *caseName) {
		return fmt.Errorf("no testcase named %q in the given manifests", *caseName)
	}

	dir := *outDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "p2pscenario-*")
		if err != nil {
			return err
		}
		dir = tmp
		if !*keep {
			defer os.RemoveAll(tmp)
		}
	}
	bin := *nodeBin
	if bin == "" {
		var err error
		if bin, err = scenario.BuildNodeBin(dir); err != nil {
			return err
		}
	}

	if *benchOut != "" {
		return runBench(bin, dir, *benchOut, *benchN)
	}

	failures := 0
	for _, m := range manifests {
		for i := range m.Testcases {
			tc := &m.Testcases[i]
			if *caseName != "" && tc.Name != *caseName {
				continue
			}
			counts := []int{*instances}
			if *instances == 0 {
				if len(tc.Sweep) > 0 {
					counts = tc.Sweep
				} else {
					counts = []int{tc.Instances.Default}
				}
			}
			for _, n := range counts {
				if err := runOne(m, tc, bin, dir, n, params, *stream, *profile); err != nil {
					fmt.Fprintf(os.Stderr, "p2pscenario: %s/%s n=%d: %v\n", m.Name, tc.Name, n, err)
					failures++
				}
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d run(s) failed", failures)
	}
	return nil
}

// hasTestcase reports whether any manifest declares a testcase by name.
func hasTestcase(manifests []*scenario.Manifest, name string) bool {
	for _, m := range manifests {
		for i := range m.Testcases {
			if m.Testcases[i].Name == name {
				return true
			}
		}
	}
	return false
}

// runOne orchestrates a single (testcase, instance count) run.
func runOne(m *scenario.Manifest, tc *scenario.Testcase, bin, dir string, n int, overrides map[string]string, stream, profile bool) error {
	rp, err := tc.ResolveParams(overrides)
	if err != nil {
		return err
	}
	sub := filepath.Join(dir, fmt.Sprintf("%s-%s-n%d", m.Name, tc.Name, n))
	report, err := scenario.Run(scenario.RunConfig{
		NodeBin:   bin,
		Testcase:  tc,
		Params:    rp,
		Instances: n,
		OutDir:    sub,
		Stream:    stream,
		Profile:   profile,
		Log:       os.Stderr,
	})
	if err != nil {
		return err
	}
	for _, inv := range report.Invariants {
		status := "ok"
		if !inv.OK {
			status = "VIOLATED"
		}
		fmt.Printf("%s/%s n=%d: %-18s %s  %s\n", m.Name, tc.Name, n, inv.Name, status, inv.Detail)
	}
	if !report.Passed {
		return fmt.Errorf("invariants violated (artifacts in %s)", sub)
	}
	return nil
}

// benchEntry is one BENCH_scenario.json record: go-benchmark-style
// timing fields with the live-vs-simnet fields added.
type benchEntry struct {
	Name         string  `json:"name"`
	Iterations   int     `json:"iterations"`
	NsPerOp      int64   `json:"ns_per_op"`
	SecondsPerOp float64 `json:"seconds_per_op"`
	N            int     `json:"n,omitempty"`
	Rounds       int     `json:"rounds,omitempty"`
	DeltaMS      int64   `json:"delta_ms,omitempty"`
	RoundsDelta  *int    `json:"rounds_delta,omitempty"`
	Tolerance    int     `json:"tolerance_rounds,omitempty"`
	Agree        *bool   `json:"agree,omitempty"`
}

// runBench runs the live fig2a point (honest ERB at benchN real TCP
// processes) and the simnet reference, and records both plus the
// agreement verdict in a BENCH json.
func runBench(bin, dir, outPath string, benchN int) error {
	// The live Δ scales quadratically with the fleet: the echo round
	// moves n*(n-1) sealed frames through however few cores the host
	// has, so the delivery bound is dominated by scheduling and crypto
	// throughput, not link bandwidth. The quadratic term is calibrated
	// for a single-core worst case (~0.2ms of shared CPU per frame).
	delta := 500*time.Millisecond +
		time.Duration(benchN)*4*time.Millisecond +
		time.Duration(benchN*benchN)*200*time.Microsecond
	tc := &scenario.Testcase{
		Name:      fmt.Sprintf("live-fig2a-n%d", benchN),
		Instances: scenario.Range{Min: 4, Max: 1024, Default: benchN},
		Expect:    scenario.Expect{Agreement: true, Accepted: true},
	}
	rp, err := tc.ResolveParams(nil)
	if err != nil {
		return err
	}
	rp.T = 1
	rp.Delta = delta
	rp.Epochs = 1
	fmt.Fprintf(os.Stderr, "p2pscenario: live fig2a point: n=%d delta=%v\n", benchN, delta)

	began := time.Now()
	report, err := scenario.Run(scenario.RunConfig{
		NodeBin:   bin,
		Testcase:  tc,
		Params:    rp,
		Instances: benchN,
		OutDir:    filepath.Join(dir, tc.Name),
		// Round 1 waits for the slowest process: each of the n nodes
		// derives all n demo enclaves and preflights n-1 listeners, so
		// the fleet's startup work is quadratic in n and shares however
		// few cores the host has.
		StartDelay: 10*time.Second + time.Duration(benchN)*200*time.Millisecond,
		Log:        os.Stderr,
	})
	if err != nil {
		return err
	}
	if !report.Passed {
		for _, inv := range report.Invariants {
			fmt.Fprintf(os.Stderr, "p2pscenario: invariant %s ok=%v %s\n", inv.Name, inv.OK, inv.Detail)
		}
		return fmt.Errorf("live bench run failed its invariants")
	}
	liveWall := time.Since(began)
	liveRounds := 0
	for _, node := range report.Nodes {
		if node.Byz || node.Result == nil {
			continue
		}
		for _, ep := range node.Result.Epochs {
			if ep.Accepted && int(ep.Round) > liveRounds {
				liveRounds = int(ep.Round)
			}
		}
	}

	ref, err := experiments.SimnetERBReference(experiments.Config{Seed: 42}, benchN)
	if err != nil {
		return err
	}
	const tolerance = 1
	roundsDelta := liveRounds - ref.Rounds
	agree := roundsDelta >= -tolerance && roundsDelta <= tolerance
	fmt.Printf("live fig2a n=%d: live rounds=%d, simnet rounds=%d, delta=%d (tolerance %d) agree=%v\n",
		benchN, liveRounds, ref.Rounds, roundsDelta, tolerance, agree)

	doc := struct {
		GoVersion  string       `json:"go_version"`
		GoMaxProcs int          `json:"gomaxprocs"`
		Workers    int          `json:"workers"`
		Results    []benchEntry `json:"results"`
	}{
		GoVersion:  goruntime.Version(),
		GoMaxProcs: goruntime.GOMAXPROCS(0),
		Workers:    0,
		Results: []benchEntry{
			{
				Name: fmt.Sprintf("live_fig2a_erb_n%d", benchN), Iterations: 1,
				NsPerOp: liveWall.Nanoseconds(), SecondsPerOp: liveWall.Seconds(),
				N: benchN, Rounds: liveRounds, DeltaMS: delta.Milliseconds(),
			},
			{
				Name: fmt.Sprintf("simnet_fig2a_erb_n%d", benchN), Iterations: 1,
				NsPerOp: ref.Termination.Nanoseconds(), SecondsPerOp: ref.Termination.Seconds(),
				N: benchN, Rounds: ref.Rounds, DeltaMS: (ref.OneRound / 2).Milliseconds(),
			},
			{
				Name: "fig2a_live_vs_simnet", Iterations: 1,
				RoundsDelta: &roundsDelta, Tolerance: tolerance, Agree: &agree,
			},
		},
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
		return err
	}
	if !agree {
		return fmt.Errorf("live point disagrees with simnet beyond tolerance")
	}
	return nil
}
