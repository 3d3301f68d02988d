// Command p2pbench runs the repository's performance-critical benchmarks
// in-process via testing.Benchmark and writes the results as JSON, so
// regressions in the setup and sweep hot paths are caught by comparing
// checked-in snapshots (BENCH_setup.json) instead of eyeballing `go test
// -bench` output.
//
// Usage:
//
//	p2pbench                     # run all benchmarks, print JSON to stdout
//	p2pbench -o BENCH_setup.json # also write the JSON to a file
//	p2pbench -bench setup        # only benchmarks whose name contains "setup"
//	p2pbench -baseline BENCH_setup.json
//	                             # print ns/op and allocs/op deltas against
//	                             # a previous snapshot (stderr, stdout stays JSON)
//	p2pbench -cpuprofile cpu.pprof -memprofile mem.pprof
//	                             # write pprof profiles for the benchmarked code
package main

import (
	"crypto/rand"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"sync"
	"testing"
	"time"

	"sgxp2p"
	"sgxp2p/internal/channel"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/experiments"
	"sgxp2p/internal/scenario"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// result is one benchmark measurement in the JSON snapshot.
type result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Seconds     float64 `json:"seconds_per_op"`
	// Throughput is broadcasts completed per second, reported only by the
	// multiplexed-runtime benchmarks (one op = many concurrent broadcasts).
	Throughput float64 `json:"broadcasts_per_sec,omitempty"`
}

// snapshot is the file layout of BENCH_setup.json.
type snapshot struct {
	GoVersion  string   `json:"go_version"`
	GoMaxProcs int      `json:"gomaxprocs"`
	Workers    int      `json:"workers"`
	Results    []result `json:"results"`
	// Baseline and Comparison are present when the run diffed against a
	// previous snapshot (-baseline): the snapshot then carries its own
	// evidence of how the measured paths moved.
	Baseline   string       `json:"baseline,omitempty"`
	Comparison []comparison `json:"comparison,omitempty"`
}

// comparison is one benchmark's delta against the baseline snapshot.
type comparison struct {
	Name            string  `json:"name"`
	BaseNsPerOp     int64   `json:"base_ns_per_op"`
	NsPerOp         int64   `json:"ns_per_op"`
	NsDeltaPct      float64 `json:"ns_delta_pct"`
	BaseAllocsPerOp int64   `json:"base_allocs_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	AllocsDelta     int64   `json:"allocs_delta"`
	BaseBytesPerOp  int64   `json:"base_bytes_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	BytesDeltaPct   float64 `json:"bytes_delta_pct"`
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "p2pbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("p2pbench", flag.ContinueOnError)
	var (
		out        = fs.String("o", "", "also write the JSON snapshot to this file")
		match      = fs.String("bench", "", "only run benchmarks whose name contains one of these comma-separated substrings")
		workers    = fs.Int("workers", 0, "worker pool size for the sweep benchmarks (0 = all cores)")
		count      = fs.Int("count", 1, "run each benchmark this many times and keep the fastest (damps scheduler/GC noise)")
		baseline   = fs.String("baseline", "", "previous snapshot JSON to diff the new results against")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile taken after the run to this file")
		instances  = fs.Int("instances", 1000, "concurrent broadcasts per op in the headline cluster_mux benchmarks")
		live       = fs.Bool("live", false, "include the obs_live rows: a real N=128 process fleet run plain and streamed (minutes of wall time)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// Load the baseline before running anything, so -o overwriting the
	// same file still diffs against the pre-run contents.
	var base *snapshot
	if *baseline != "" {
		data, err := os.ReadFile(*baseline)
		if err != nil {
			return fmt.Errorf("baseline: %w", err)
		}
		base = &snapshot{}
		if err := json.Unmarshal(data, base); err != nil {
			return fmt.Errorf("baseline %s: %w", *baseline, err)
		}
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

	// Mirror cmd/p2pexp: the sweeps allocate heavily and transiently.
	debug.SetGCPercent(400)

	sweep := func(id string) func(b *testing.B) {
		return func(b *testing.B) {
			runner, err := experiments.Get(id)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runner(experiments.Config{Seed: int64(i + 1), Workers: *workers}); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// broadcast measures a full ERB broadcast on a standing cluster —
	// the protocol hot loop the round-scoped frame coalescing targets.
	broadcast := func(n, t int) func(b *testing.B) {
		return func(b *testing.B) {
			cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: t, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			payload := sgxp2p.ValueFromString("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.Broadcast(0, payload); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
	// muxBroadcast measures k concurrent ERB broadcasts multiplexed over a
	// standing cluster's shared links (one BroadcastMany per op): the
	// sustained-throughput workload the Mux exists for. Initiators rotate
	// round-robin so every node both initiates and relays.
	muxBroadcast := func(n, t, k int) func(b *testing.B) {
		return func(b *testing.B) {
			cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: t, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]sgxp2p.BroadcastRequest, k)
			for j := range reqs {
				reqs[j] = sgxp2p.BroadcastRequest{
					Initiator: sgxp2p.NodeID(j % n),
					Value:     sgxp2p.ValueFromString("bench"),
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := cluster.BroadcastMany(reqs, sgxp2p.MuxOptions{}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "broadcasts/sec")
		}
	}
	// serialMany is the baseline the mux is judged against: the same k
	// broadcasts issued one Broadcast epoch at a time over the same
	// cluster.
	serialMany := func(n, t, k int) func(b *testing.B) {
		return func(b *testing.B) {
			cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: t, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			payload := sgxp2p.ValueFromString("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					if _, err := cluster.Broadcast(sgxp2p.NodeID(j%n), payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "broadcasts/sec")
		}
	}
	// dedicatedMany is the pre-mux status quo the Mux replaced: each
	// broadcast gets its own dedicated deployment — fresh enclaves,
	// links and peers per instance, so every broadcast re-pays the
	// O(N^2) channel setup. serialMany is the stricter variant of the
	// same serial schedule with setup amortized away by a standing
	// cluster; BENCH_mux.json records the mux against both.
	dedicatedMany := func(n, t, k int) func(b *testing.B) {
		return func(b *testing.B) {
			payload := sgxp2p.ValueFromString("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: t, Seed: 1})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := cluster.Broadcast(sgxp2p.NodeID(j%n), payload); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(k)*float64(b.N)/b.Elapsed().Seconds(), "broadcasts/sec")
		}
	}
	// obsBroadcast is the live-plane ablation, three rungs of the same
	// standing-cluster ERB broadcast: "off" (telemetry nil — the
	// zero-cost default), "record" (span hops recorded, nothing reads
	// them), and "stream" (span hops recorded while a streaming-exporter
	// -style consumer polls Since and Releases shipped prefixes
	// concurrently — the full live-export read side). record vs stream
	// isolates what STREAMING costs on top of recording; off vs record is
	// the (opt-in) recording cost itself, which in a real deployment
	// hides inside Δ-gated round idle time. The cluster and tracer are
	// rebuilt per op OUTSIDE the timer: a spans-enabled tracer retains
	// its whole event stream, so reusing one across ops would measure
	// appending into an ever-larger slice instead of the hot path.
	obsBroadcast := func(n, t int, record, stream bool) func(b *testing.B) {
		return func(b *testing.B) {
			payload := sgxp2p.ValueFromString("bench")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				var tr *telemetry.Tracer
				if record {
					tr = telemetry.New(telemetry.Options{Spans: true})
				}
				cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: t, Seed: 1, Trace: tr})
				if err != nil {
					b.Fatal(err)
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				if stream {
					wg.Add(1)
					go func() {
						defer wg.Done()
						var cursor uint64
						tick := time.NewTicker(200 * time.Microsecond)
						defer tick.Stop()
						for {
							select {
							case <-tick.C:
								cursor += uint64(len(tr.Since(cursor)))
								tr.Release(cursor)
							case <-stop:
								cursor += uint64(len(tr.Since(cursor)))
								return
							}
						}
					}()
				}
				b.StartTimer()
				if _, err := cluster.Broadcast(0, payload); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				close(stop)
				wg.Wait()
				b.StartTimer()
			}
		}
	}
	// liveStream runs one real process fleet at n and reports its wall
	// time, with the live plane on (nodes streaming events, metric deltas
	// and probe gauges over their control connections, the runner
	// aggregating per-round percentiles) or off (the plain exit-dump
	// fleet) — the deployment-level overhead comparison: rounds are
	// Δ-gated, so streaming must not stretch wall time. One op is one
	// fleet run; testing.Benchmark stops at b.N=1 because the run is far
	// longer than the bench time.
	liveStream := func(n int, stream bool) func(b *testing.B) {
		return func(b *testing.B) {
			binDir, err := os.MkdirTemp("", "p2pbench-node-*")
			if err != nil {
				b.Fatal(err)
			}
			defer os.RemoveAll(binDir)
			bin, err := scenario.BuildNodeBin(binDir)
			if err != nil {
				b.Fatal(err)
			}
			// The live Δ and start delay follow cmd/p2pscenario's bench
			// calibration: quadratic in n for crypto/scheduling throughput.
			delta := 500*time.Millisecond +
				time.Duration(n)*4*time.Millisecond +
				time.Duration(n*n)*200*time.Microsecond
			tc := &scenario.Testcase{
				Name:      fmt.Sprintf("obs-live-n%d", n),
				Instances: scenario.Range{Min: 4, Max: 1024, Default: n},
				Expect:    scenario.Expect{Agreement: true, Accepted: true},
			}
			rp, err := tc.ResolveParams(nil)
			if err != nil {
				b.Fatal(err)
			}
			rp.T = 1
			rp.Delta = delta
			rp.Epochs = 1
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				outDir, err := os.MkdirTemp("", "p2pbench-live-*")
				if err != nil {
					b.Fatal(err)
				}
				report, err := scenario.Run(scenario.RunConfig{
					NodeBin: bin, Testcase: tc, Params: rp, Instances: n,
					OutDir:     outDir,
					StartDelay: 10*time.Second + time.Duration(n)*200*time.Millisecond,
					Stream:     stream,
					Log:        os.Stderr,
				})
				if err != nil {
					b.Fatal(err)
				}
				if !report.Passed {
					for _, inv := range report.Invariants {
						fmt.Fprintf(os.Stderr, "invariant %s ok=%v %s\n", inv.Name, inv.OK, inv.Detail)
					}
					b.Fatalf("live fleet run (stream=%v) failed its invariants", stream)
				}
				os.RemoveAll(outDir)
			}
		}
	}
	benches := []struct {
		name string
		fn   func(b *testing.B)
	}{
		{"seal_open_hot", benchSealOpenHot},
		{"cluster_setup_n128", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := sgxp2p.NewCluster(sgxp2p.Options{N: 128, T: 63, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"cluster_broadcast_n64", broadcast(64, 31)},
		{"cluster_broadcast_n512", broadcast(512, 255)},
		// The instances sweep: same cluster, growing concurrency. The
		// headline count is -instances; the serial and dedicated rows at
		// that count are the baselines the mux is judged against.
		{"cluster_mux_n64_i1", muxBroadcast(64, 31, 1)},
		{"cluster_mux_n64_i10", muxBroadcast(64, 31, 10)},
		{"cluster_mux_n64_i100", muxBroadcast(64, 31, 100)},
		{fmt.Sprintf("cluster_mux_n64_i%d", *instances), muxBroadcast(64, 31, *instances)},
		{fmt.Sprintf("cluster_mux_serial_n64_i%d", *instances), serialMany(64, 31, *instances)},
		{fmt.Sprintf("cluster_mux_dedicated_n64_i%d", *instances), dedicatedMany(64, 31, *instances)},
		{"obs_broadcast_n64_off", obsBroadcast(64, 31, false, false)},
		{"obs_broadcast_n64_record", obsBroadcast(64, 31, true, false)},
		{"obs_broadcast_n64_stream", obsBroadcast(64, 31, true, true)},
		{"sweep_fig2a", sweep("fig2a")},
		{"sweep_fig2b", sweep("fig2b")},
	}
	if *live {
		benches = append(benches, struct {
			name string
			fn   func(b *testing.B)
		}{"obs_live_plain_erb_n128", liveStream(128, false)}, struct {
			name string
			fn   func(b *testing.B)
		}{"obs_live_stream_erb_n128", liveStream(128, true)})
	}

	snap := snapshot{
		GoVersion:  runtime.Version(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    *workers,
	}
	for _, bench := range benches {
		if !matchesBench(bench.name, *match) {
			continue
		}
		fmt.Fprintf(os.Stderr, "running %s...\n", bench.name)
		// The obs_live rows are real process fleets costing minutes each;
		// -count repeats are for damping scheduler noise on microbenchmarks
		// and would multiply that wall time for nothing (the fleet's wall
		// time is Δ-gated, not scheduler-noisy), so they always run once.
		reps := *count
		if strings.HasPrefix(bench.name, "obs_live") {
			reps = 1
		}
		r := testing.Benchmark(bench.fn)
		for c := 1; c < reps; c++ {
			if rc := testing.Benchmark(bench.fn); rc.N > 0 && rc.NsPerOp() < r.NsPerOp() {
				r = rc
			}
		}
		if r.N == 0 {
			return fmt.Errorf("benchmark %s failed", bench.name)
		}
		snap.Results = append(snap.Results, result{
			Name:        bench.name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Seconds:     time.Duration(r.NsPerOp()).Seconds(),
			Throughput:  r.Extra["broadcasts/sec"],
		})
	}

	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		runtime.GC()
		err = pprof.WriteHeapProfile(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}

	if base != nil {
		printDeltas(os.Stderr, base, &snap)
		snap.Baseline = *baseline
		snap.Comparison = compare(base, &snap)
	}

	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	if *out != "" {
		if err := os.WriteFile(*out, data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// benchSealOpenHot measures the steady-state per-message cost of a live
// RealSealer link: encode once, seal with the prepared per-link cipher
// into a warm envelope buffer, open on the peer side into a warm scratch
// and decode into a reused message — what the runtime's receive path
// does. This is the per-hop unit of work every multicast fans out N-1
// times.
func benchSealOpenHot(b *testing.B) {
	clock := enclave.NewWallClock()
	ea, err := enclave.Launch(deploy.DefaultProgram, 0, rand.Reader, clock)
	if err != nil {
		b.Fatal(err)
	}
	eb, err := enclave.Launch(deploy.DefaultProgram, 1, rand.Reader, clock)
	if err != nil {
		b.Fatal(err)
	}
	la, err := channel.NewLink(ea, 1, eb.DHPublic(), channel.RealSealer{})
	if err != nil {
		b.Fatal(err)
	}
	lb, err := channel.NewLink(eb, 0, ea.DHPublic(), channel.RealSealer{})
	if err != nil {
		b.Fatal(err)
	}
	msg := &wire.Message{
		Type: wire.TypeEcho, Sender: 0, Initiator: 0,
		Seq: 7, Round: 1, HasValue: true,
		Value: sgxp2p.ValueFromString("hot path"),
	}
	var encodeBuf, env, scratch []byte
	var rx wire.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		encoded, err := msg.AppendEncode(encodeBuf[:0])
		if err != nil {
			b.Fatal(err)
		}
		encodeBuf = encoded
		if env, err = la.SealEncodedAppend(env[:0], encoded); err != nil {
			b.Fatal(err)
		}
		if scratch, err = lb.OpenRawAppend(scratch[:0], env); err != nil {
			b.Fatal(err)
		}
		if err = wire.DecodeInto(&rx, scratch); err != nil {
			b.Fatal(err)
		}
	}
}

// printDeltas writes a per-benchmark comparison of ns/op, allocs/op and
// bytes/op against a previous snapshot, flagging results with no
// counterpart.
func printDeltas(w *os.File, base, cur *snapshot) {
	prev := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		prev[r.Name] = r
	}
	fmt.Fprintf(w, "\n%-30s %13s %13s %9s %11s %11s %9s %13s %13s %9s\n",
		"benchmark", "old ns/op", "new ns/op", "delta",
		"old allocs", "new allocs", "delta",
		"old bytes", "new bytes", "delta")
	for _, r := range cur.Results {
		old, ok := prev[r.Name]
		if !ok {
			fmt.Fprintf(w, "%-30s %13s %13d %9s %11s %11d %9s %13s %13d %9s\n",
				r.Name, "-", r.NsPerOp, "new", "-", r.AllocsPerOp, "new", "-", r.BytesPerOp, "new")
			continue
		}
		fmt.Fprintf(w, "%-30s %13d %13d %9s %11d %11d %9s %13d %13d %9s\n",
			r.Name, old.NsPerOp, r.NsPerOp, pct(old.NsPerOp, r.NsPerOp),
			old.AllocsPerOp, r.AllocsPerOp, pct(old.AllocsPerOp, r.AllocsPerOp),
			old.BytesPerOp, r.BytesPerOp, pct(old.BytesPerOp, r.BytesPerOp))
	}
	fmt.Fprintln(w)
}

// matchesBench reports whether a benchmark name matches the -bench filter
// (comma-separated substrings, empty matches everything).
func matchesBench(name, filter string) bool {
	if filter == "" {
		return true
	}
	for _, sub := range strings.Split(filter, ",") {
		if sub != "" && strings.Contains(name, sub) {
			return true
		}
	}
	return false
}

// compare builds the per-benchmark deltas embedded in the snapshot.
func compare(base, cur *snapshot) []comparison {
	prev := make(map[string]result, len(base.Results))
	for _, r := range base.Results {
		prev[r.Name] = r
	}
	out := make([]comparison, 0, len(cur.Results))
	for _, r := range cur.Results {
		old, ok := prev[r.Name]
		if !ok {
			continue
		}
		c := comparison{
			Name:            r.Name,
			BaseNsPerOp:     old.NsPerOp,
			NsPerOp:         r.NsPerOp,
			BaseAllocsPerOp: old.AllocsPerOp,
			AllocsPerOp:     r.AllocsPerOp,
			AllocsDelta:     r.AllocsPerOp - old.AllocsPerOp,
			BaseBytesPerOp:  old.BytesPerOp,
			BytesPerOp:      r.BytesPerOp,
		}
		if old.NsPerOp != 0 {
			c.NsDeltaPct = 100 * float64(r.NsPerOp-old.NsPerOp) / float64(old.NsPerOp)
		}
		if old.BytesPerOp != 0 {
			c.BytesDeltaPct = 100 * float64(r.BytesPerOp-old.BytesPerOp) / float64(old.BytesPerOp)
		}
		out = append(out, c)
	}
	return out
}

// pct formats the relative change from old to new as a signed percentage.
func pct(old, new int64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*float64(new-old)/float64(old))
}
