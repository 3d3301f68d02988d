// Command p2ptrace inspects JSONL telemetry traces produced by
// p2pexp -trace and by the scenario runner (its per-incarnation traces
// and merged.jsonl).
//
// Usage:
//
//	p2ptrace run.jsonl            # pretty-print the per-round timeline
//	p2ptrace -instance 3 run.jsonl  # timeline of one protocol instance only
//	p2ptrace -check run.jsonl     # strict schema + monotonicity check
//	p2ptrace -diff a.jsonl b.jsonl  # first diverging line (exit 1 if any)
//	p2ptrace -merge n0.jsonl n1.jsonl ...  # time-ordered merge to stdout
//	p2ptrace -spans merged.jsonl  # reconstruct causal spans, per-hop histograms
//	p2ptrace -spans -graph out.jsonl merged.jsonl  # also write the span graph
//
// -diff is the determinism witness: two traced runs of the same seed must
// be byte-identical, so any reported divergence is a reproducibility bug
// (or two genuinely different runs).
//
// -spans joins the seal/open/deliver/handle hop events of one or more
// traces (a span-enabled run: any scenario run, whose merged.jsonl
// archive carries every process's hops) into cross-process
// happens-before chains and prints each hop's latency distribution.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"sgxp2p/internal/obsplane"
	"sgxp2p/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2ptrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("p2ptrace", flag.ContinueOnError)
	var (
		check    = fs.Bool("check", false, "validate the trace (schema, kinds, monotone timestamps) and print its event count")
		diff     = fs.Bool("diff", false, "compare two traces line by line; exit 1 on the first divergence")
		merge    = fs.Bool("merge", false, "merge per-process traces into one time-ordered JSONL stream on stdout")
		spans    = fs.Bool("spans", false, "reconstruct causal span chains and print per-hop latency histograms")
		graph    = fs.String("graph", "", "-spans: also write the reconstructed span graph as JSONL to this file")
		instance = fs.Int("instance", -1, "filter the timeline to one protocol instance id (multiplexed traces)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *spans {
		if fs.NArg() < 1 {
			return fmt.Errorf("-spans needs at least one trace file")
		}
		return spanReport(os.Stdout, fs.Args(), *graph)
	}
	if *merge {
		if fs.NArg() < 1 {
			return fmt.Errorf("-merge needs at least one trace file")
		}
		return mergeTraces(os.Stdout, fs.Args())
	}
	if *diff {
		if fs.NArg() != 2 {
			return fmt.Errorf("-diff needs exactly two trace files, got %d", fs.NArg())
		}
		return diffTraces(fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("need exactly one trace file, got %d", fs.NArg())
	}
	if *check {
		return checkTrace(fs.Arg(0))
	}
	if *instance > 1<<32-1 {
		return fmt.Errorf("-instance %d out of range", *instance)
	}
	return printTimeline(os.Stdout, fs.Arg(0), *instance)
}

// printTimeline renders a trace as the per-round timeline, optionally
// filtered to one protocol instance (instance < 0 keeps everything).
func printTimeline(w io.Writer, path string, instance int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := telemetry.ReadJSONL(f)
	if err != nil {
		return err
	}
	if instance >= 0 {
		events = telemetry.FilterInstance(events, uint32(instance))
	}
	return telemetry.WriteTimeline(w, events)
}

// mergeTraces interleaves per-process traces into one globally
// time-ordered stream — the form the scenario runner archives so a
// multi-process run can be read (and -check'ed) as a single timeline.
func mergeTraces(w io.Writer, paths []string) error {
	events, err := readMerged(paths)
	if err != nil {
		return err
	}
	return telemetry.WriteJSONL(w, events)
}

// readMerged reads the given traces and merges them into one stream.
func readMerged(paths []string) ([]telemetry.Event, error) {
	streams := make([][]telemetry.Event, 0, len(paths))
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		events, err := telemetry.ReadJSONL(f)
		f.Close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		streams = append(streams, events)
	}
	return telemetry.MergeEvents(streams...), nil
}

// spanReport merges the given traces, reconstructs the causal span graph
// and prints the per-hop latency histograms; graphOut, when set, receives
// the graph itself as JSONL.
func spanReport(w io.Writer, paths []string, graphOut string) error {
	events, err := readMerged(paths)
	if err != nil {
		return err
	}
	g := obsplane.Reconstruct(events)
	if graphOut != "" {
		gf, err := os.Create(graphOut)
		if err != nil {
			return err
		}
		if err := g.WriteJSONL(gf); err != nil {
			gf.Close()
			return err
		}
		if err := gf.Close(); err != nil {
			return err
		}
	}
	return obsplane.WriteHopHistogram(w, g)
}

// checkTrace validates a trace file and reports its event count.
func checkTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	count, err := telemetry.ValidateJSONL(f)
	if err != nil {
		return err
	}
	fmt.Printf("%s: valid, %d events\n", path, count)
	return nil
}

// diffTraces reports the first line where two traces diverge; identical
// traces print a confirmation, differing ones exit non-zero.
func diffTraces(pathA, pathB string) error {
	fa, err := os.Open(pathA)
	if err != nil {
		return err
	}
	defer fa.Close()
	fb, err := os.Open(pathB)
	if err != nil {
		return err
	}
	defer fb.Close()
	line, aLine, bLine, err := telemetry.DiffLines(fa, fb)
	if err != nil {
		return err
	}
	if line == 0 {
		fmt.Printf("traces identical: %s == %s\n", pathA, pathB)
		return nil
	}
	return fmt.Errorf("traces diverge at line %d:\n  %s: %s\n  %s: %s",
		line, pathA, orEOF(aLine), pathB, orEOF(bLine))
}

// orEOF substitutes a marker for a side that ran out of lines.
func orEOF(s string) string {
	if s == "" {
		return "<eof>"
	}
	return s
}
