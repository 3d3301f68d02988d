// Command bench is the repository's one benchmark (BENCHMARK.json): five
// named closed-loop workloads on the simulator's virtual clock, eleven
// end-to-end metrics measured over the public API with tracing and
// telemetry off, and a per-layer budget from a separate traced pass that
// interposes on the program only from outside. See README.md.
//
// Usage:
//
//	go run ./bench -workload erb_serial -seed 1 -seconds 20 -trace 0
//	    one pass of one workload; the last stdout line is the result
//	    object of BENCHMARK.json's contract (-trace 1: per-layer metrics)
//	go run ./bench [-seconds 20] [-seed 1] [-out bench/out]
//	    every workload, untraced then traced, each pass in a process of its
//	    own; writes results.json and <workload>/spans.jsonl to -out
//	go run ./bench -smoke
//	    the same at N=8 with a handful of ops (what the tests run)
//	go run ./bench -compare a.json b.json
//	    diff two results.json files against BENCHMARK.json's bounds
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"text/tabwriter"
	"time"
)

// smokeCalls caps the timed window of a -smoke pass.
const smokeCalls = 4

func main() {
	// The simulator is one goroutine; deploy.New fans setup out over
	// GOMAXPROCS workers. Pinning it makes runs comparable across hosts
	// with more cores. GOGC stays at its default.
	runtime.GOMAXPROCS(2)
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workload  = fs.String("workload", "", "run one pass of this workload and print the result object (default: the whole suite)")
		seed      = fs.Int64("seed", 1, "feeds Options.Seed and the payload values")
		seconds   = fs.Int("seconds", 20, "length of the timed window of a pass")
		trace     = fs.Int("trace", 0, "with -workload: 0 = end-to-end metrics, 1 = per-layer metrics from the traced pass")
		out       = fs.String("out", "", "directory for results.json and spans.jsonl (suite default: bench/out; with -workload: spans.jsonl only, default none)")
		isSmoke   = fs.Bool("smoke", false, "shrink every workload to N=8 and a handful of ops")
		compare   = fs.Bool("compare", false, "compare two results.json files (arguments) against the bounds in -benchmark")
		benchmark = fs.String("benchmark", "BENCHMARK.json", "the benchmark definition -compare takes its bounds from")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *compare {
		if fs.NArg() != 2 {
			return fmt.Errorf("-compare needs two results.json files")
		}
		return compareFiles(os.Stdout, *benchmark, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	cfg := passConfig{seed: *seed, limit: time.Duration(*seconds) * time.Second, smoke: *isSmoke}
	if *workload != "" {
		return runOne(os.Stdout, cfg, *workload, *trace == 1, *out)
	}
	if *out == "" {
		*out = filepath.Join("bench", "out")
	}
	return runSuite(cfg, *out)
}

// passConfig is what the command line decides about a pass.
type passConfig struct {
	seed  int64
	limit time.Duration
	smoke bool
}

// pass runs one pass of one workload.
func (c passConfig) pass(s spec, traced bool) (result, error) {
	maxCalls := 0
	if c.smoke {
		s, maxCalls = smoke(s), smokeCalls
	}
	if traced {
		return runLayers(s, c.seed, c.limit, maxCalls)
	}
	return runEndToEnd(s, c.seed, c.limit, maxCalls)
}

// resultLine is the last stdout line of a -workload run.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printMetrics writes every metric by name with its unit, in table order.
func printMetrics(w *tabwriter.Writer, defs []metricDef, m map[string]metric) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %s\t%.6g\t%s\n", d.name, m[d.name].Value, d.unit)
	}
	w.Flush()
}

func runOne(w io.Writer, cfg passConfig, name string, traced bool, out string) error {
	s, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	res, err := cfg.pass(s, traced)
	if err != nil {
		return err
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	line := resultLine{Correct: res.err == nil, Attempted: res.attempted, Failed: res.failed, Metrics: report(defs, res.values)}
	fmt.Fprintf(w, "%s seed=%d trace=%v: %d ops attempted, %d failed, %d timed calls\n", name, cfg.seed, traced, res.attempted, res.failed, res.samples)
	printMetrics(tabwriter.NewWriter(w, 0, 0, 2, ' ', 0), defs, line.Metrics)
	if out != "" && traced {
		if err = os.MkdirAll(out, 0o755); err != nil {
			return err
		}
		if err = writeSpans(filepath.Join(out, "spans.jsonl"), res.spans); err != nil {
			return err
		}
	}
	enc, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(enc))
	return res.err
}

// workloadResult is one workload's entry in results.json.
type workloadResult struct {
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	EndToEnd  map[string]metric `json:"end_to_end"`
	PerLayer  map[string]metric `json:"per_layer"`
}

// results is the layout of results.json.
type results struct {
	Host      hostInfo                  `json:"host"`
	Seed      int64                     `json:"seed"`
	Seconds   float64                   `json:"seconds"`
	Smoke     bool                      `json:"smoke,omitempty"`
	Workloads map[string]workloadResult `json:"workloads"`
}

// childPass runs one pass as `bench -workload ...` in a process of its
// own, so that a suite's numbers are the numbers a single invocation
// reports: no pass inherits the heap of the one before. The child's output
// is passed through; its last line is the result.
func childPass(cfg passConfig, name string, traced bool, out string) (resultLine, error) {
	exe, err := os.Executable()
	if err != nil {
		return resultLine{}, err
	}
	args := []string{"-workload", name, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(int(cfg.limit.Seconds())), "-trace", "0"}
	if traced {
		args[len(args)-1] = "1"
		args = append(args, "-out", filepath.Join(out, name))
	}
	if cfg.smoke {
		args = append(args, "-smoke")
	}
	var stdout bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout = io.MultiWriter(os.Stdout, &stdout)
	cmd.Stderr = os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
	var line resultLine
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		if runErr != nil {
			return resultLine{}, fmt.Errorf("%s: %w", name, runErr)
		}
		return resultLine{}, fmt.Errorf("%s: no result line: %w", name, err)
	}
	return line, nil
}

// runSuite runs every workload untraced, then traced for half as long,
// each pass in its own process, and writes results.json; the traced passes
// leave <out>/<workload>/spans.jsonl.
func runSuite(cfg passConfig, out string) error {
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	host := readHost()
	if host.Noisy {
		fmt.Fprintf(os.Stderr, "bench: load average %.2f before start: this run is marked noisy\n", host.LoadStart)
	}
	all := results{Seed: cfg.seed, Seconds: cfg.limit.Seconds(), Smoke: cfg.smoke, Workloads: make(map[string]workloadResult)}
	traced := cfg
	traced.limit = max(cfg.limit/2, time.Second)
	incorrect := 0
	for _, s := range workloads {
		e2e, err := childPass(cfg, s.name, false, out)
		if err != nil {
			return err
		}
		layers, err := childPass(traced, s.name, true, out)
		if err != nil {
			return err
		}
		if !e2e.Correct || !layers.Correct {
			incorrect++
		}
		all.Workloads[s.name] = workloadResult{
			Attempted: e2e.Attempted + layers.Attempted, Failed: e2e.Failed + layers.Failed,
			EndToEnd: e2e.Metrics, PerLayer: layers.Metrics,
		}
	}
	host.finish()
	all.Host = host
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(out, "results.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	if incorrect > 0 {
		return fmt.Errorf("%d workload(s) failed their checks", incorrect)
	}
	return nil
}
