// Command p2pexp regenerates the tables and figures of "Robust P2P
// Primitives Using SGX Enclaves" (ICDCS 2020) on the simulated testbed.
//
// Usage:
//
//	p2pexp -experiment all            # everything, default scale
//	p2pexp -experiment fig2a -full    # one figure at paper scale
//	p2pexp -experiment tab1 -csv      # machine-readable output
//	p2pexp -experiment all -check cmd/p2pexp/testdata/all.golden
//
// -check compares the output byte for byte with a recorded file instead
// of printing it (the tables are deterministic for a fixed seed at any
// GOMAXPROCS); an intended change re-records the file by redirecting the
// same command without -check into it.
//
// Experiment ids: fig2a fig2b fig2c fig3a fig3b fig3c tab1 tab2 sanitize
// bias ablate chaos (see DESIGN.md for the per-experiment index).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"sgxp2p/internal/chaos"
	"sgxp2p/internal/experiments"
	"sgxp2p/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2pexp:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("p2pexp", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "experiment id or 'all'")
		full       = fs.Bool("full", false, "run the paper-scale sweeps (slower)")
		seed       = fs.Int64("seed", 1, "deterministic seed")
		csv        = fs.Bool("csv", false, "emit CSV instead of aligned tables")
		delta      = fs.Duration("delta", time.Second, "base one-way delivery bound (a round is 2*delta)")
		unlimited  = fs.Bool("unlimited-bandwidth", false, "disable the shared-link model")
		chaosSeed  = fs.Int64("chaos-seed", 0, "replay a single chaos fault schedule by seed (chaos experiment only)")
		tracePath  = fs.String("trace", "", "run one traced chaos replay and write its JSONL event stream to this file")
		metricsOut = fs.String("metrics-out", "", "with -trace: also write the run's metrics in Prometheus text format")
		traceProto = fs.String("trace-proto", "erb", "traced replay protocol: erb, erng or erng-opt")
		traceN     = fs.Int("trace-n", 9, "traced replay network size")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		check      = fs.String("check", "", "compare the output byte for byte with this recorded file instead of printing it")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the sweep to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return nil
	}

	if *tracePath != "" || *metricsOut != "" {
		traceSeed := *chaosSeed
		if traceSeed == 0 {
			traceSeed = *seed
		}
		return tracedRun(*traceProto, *traceN, traceSeed, *tracePath, *metricsOut)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "p2pexp:", err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "p2pexp:", err)
			}
		}()
	}

	// Experiment sweeps allocate heavily and transiently; a lazier GC
	// roughly halves wall-clock time for the big figures.
	debug.SetGCPercent(400)

	cfg := experiments.Config{
		Full:      *full,
		Seed:      *seed,
		Delta:     *delta,
		ChaosSeed: *chaosSeed,
	}
	if *unlimited {
		cfg.Bandwidth = experiments.Unlimited
	}

	var tables []*experiments.Table
	if *experiment == "all" {
		all, err := experiments.All(cfg)
		if err != nil {
			return err
		}
		tables = all
	} else {
		runner, err := experiments.Get(*experiment)
		if err != nil {
			return err
		}
		start := time.Now()
		tbl, err := runner(cfg)
		if err != nil {
			return err
		}
		if *check == "" {
			tbl.Notes = append(tbl.Notes, fmt.Sprintf("generated in %.1fs wall-clock", time.Since(start).Seconds()))
		}
		tables = []*experiments.Table{tbl}
	}

	var out io.Writer = os.Stdout
	var got bytes.Buffer
	if *check != "" {
		out = &got
	}
	for _, tbl := range tables {
		if *csv {
			if err := tbl.CSV(out); err != nil {
				return err
			}
			continue
		}
		if err := tbl.Render(out); err != nil {
			return err
		}
	}
	if *check != "" {
		return checkGolden(*check, got.Bytes())
	}
	return nil
}

// checkGolden fails with the first diverging line unless got is
// byte-identical to the recorded file.
func checkGolden(path string, got []byte) error {
	want, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if bytes.Equal(got, want) {
		fmt.Printf("output matches %s (%d bytes)\n", path, len(want))
		return nil
	}
	line, wantLine, gotLine, err := telemetry.DiffLines(bytes.NewReader(want), bytes.NewReader(got))
	if err != nil {
		return err
	}
	return fmt.Errorf("output diverges from %s at line %d:\n  recorded: %s\n  this run: %s", path, line, wantLine, gotLine)
}

// tracedRun executes one seeded chaos replay with telemetry enabled and
// exports the trace (JSONL) and metrics (Prometheus text). The invariant
// verdict is printed but never turns into a non-zero exit: the point of a
// traced replay is to capture the evidence, violation included.
func tracedRun(proto string, n int, seed int64, tracePath, metricsPath string) error {
	var (
		o     *chaos.Outcome
		err   error
		check func(*chaos.Outcome) error
	)
	switch proto {
	case "erb":
		o, err = chaos.RunERB(seed, n, (n-1)/2)
		check = chaos.CheckERB
	case "erng":
		o, err = chaos.RunERNG(seed, n, (n-1)/2, false)
		check = chaos.CheckERNG
	case "erng-opt":
		o, err = chaos.RunERNG(seed, n, n/3, true)
		check = chaos.CheckERNG
	default:
		return fmt.Errorf("unknown -trace-proto %q (want erb, erng or erng-opt)", proto)
	}
	if err != nil {
		return err
	}

	if tracePath != "" {
		if err := writeFileWith(tracePath, o.Trace.ExportJSONL); err != nil {
			return err
		}
	}
	if metricsPath != "" {
		if err := writeFileWith(metricsPath, o.Metrics.ExportPrometheus); err != nil {
			return err
		}
	}

	fmt.Printf("traced %s replay: seed=%d n=%d t=%d schedule %s\n", proto, o.Seed, o.N, o.T, o.Schedule)
	fmt.Printf("events=%d hash=%#016x trace-hash=%#016x\n", o.Events, o.EventsHash, o.TraceHash)
	if verr := check(o); verr != nil {
		fmt.Printf("invariants: VIOLATED\n%v\n", verr)
	} else {
		fmt.Println("invariants: held")
	}
	return nil
}

// writeFileWith creates path and streams export into it.
func writeFileWith(path string, export func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := export(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
