// Command p2pscenario orchestrates declarative multi-process scenarios:
// it reads JSON manifests (scenarios/*.json), spawns a fleet of p2pnode
// processes over real TCP, runs the readiness barrier, fires the
// testcase's fault schedule (chaos.Schedule's text form: the runner
// crashes and restarts processes, and every node applies its own flips),
// writes every process's telemetry JSONL and result JSON as they arrive
// over its control connection, and asserts the cross-process invariants
// (agreement, termination rounds, trace consistency) centrally.
//
// Usage:
//
//	p2pscenario scenarios/honest-sweep.json          # run all testcases (sweeps included)
//	p2pscenario -list scenarios/*.json               # list scenarios and testcases
//	p2pscenario -testcase erb-honest -instances 16 scenarios/honest-sweep.json
//	p2pscenario -param epochs=3 -param delta=300ms scenarios/slow-link.json
//	p2pscenario -testcase erb-honest -instances 128 -param epochs=1 -param delta=4.3s \
//		scenarios/honest-sweep.json                   # the live fig2a point
//
// The live fig2a point's max_round bound is simnet's 2 decision rounds
// with one round of tolerance; the simnet side is fig2a's N=128 row.
//
// Observation is not a mode: every run records each node's events with
// their causal span hops and its resource probe gauges, reports per-round
// fleet percentiles and the runner's ingest lag live, and arms
// pprof-on-violation captures for wedged nodes.
//
// The p2pnode binary is built automatically unless -node-bin points at a
// prebuilt one. Artifacts (per-incarnation traces, results and logs,
// merged.jsonl, aggregate.jsonl, profiles/) land in -out (kept) or a temp
// dir (removed unless -keep).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

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
	)
	fs.Var(params, "param", "parameter override key=value (repeatable)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if fs.NArg() == 0 {
		return fmt.Errorf("no manifests given")
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
			fmt.Printf("%s: %s\n", m.Name, m.Description)
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

	if *caseName != "" && !hasTestcase(manifests, *caseName) {
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
				if err := runOne(m, tc, bin, dir, n, params); err != nil {
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
func runOne(m *scenario.Manifest, tc *scenario.Testcase, bin, dir string, n int, overrides map[string]string) error {
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
