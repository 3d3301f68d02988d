// Benchmarks regenerating every table and figure of the paper's
// evaluation, one benchmark per artifact (see DESIGN.md for the index and
// EXPERIMENTS.md for recorded paper-vs-measured results). Each iteration
// performs the complete experiment sweep at the default scale; pass
// -benchtime=1x for a single regeneration, and use cmd/p2pexp -full for
// the paper-scale parameter ranges.
package sgxp2p_test

import (
	"runtime"
	"testing"

	"sgxp2p"
	"sgxp2p/internal/beacon"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/experiments"
)

// benchExperiment runs one experiment sweep per iteration and reports the
// number of data points produced.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	runner, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	var rows int
	for i := 0; i < b.N; i++ {
		tbl, err := runner(experiments.Config{Seed: int64(i + 1)})
		if err != nil {
			b.Fatal(err)
		}
		rows = len(tbl.Rows)
	}
	b.ReportMetric(float64(rows), "datapoints")
}

// BenchmarkFig2aERBTermination regenerates Figure 2a: ERB termination
// time versus network size with an honest initiator.
func BenchmarkFig2aERBTermination(b *testing.B) { benchExperiment(b, "fig2a") }

// BenchmarkFig2bERNGTermination regenerates Figure 2b: unoptimized-ERNG
// termination time versus network size.
func BenchmarkFig2bERNGTermination(b *testing.B) { benchExperiment(b, "fig2b") }

// BenchmarkFig2cByzantineTermination regenerates Figure 2c: ERB
// termination versus byzantine fraction under the chain strategy.
func BenchmarkFig2cByzantineTermination(b *testing.B) { benchExperiment(b, "fig2c") }

// BenchmarkFig3aERBTraffic regenerates Figure 3a: ERB communication
// versus network size against the theoretical quadratic curve.
func BenchmarkFig3aERBTraffic(b *testing.B) { benchExperiment(b, "fig3a") }

// BenchmarkFig3bERNGTraffic regenerates Figure 3b: unoptimized versus
// optimized ERNG communication with the theoretical curves.
func BenchmarkFig3bERNGTraffic(b *testing.B) { benchExperiment(b, "fig3b") }

// BenchmarkFig3cByzantineTraffic regenerates Figure 3c: ERB communication
// versus byzantine fraction (halt-on-divergence traffic reduction).
func BenchmarkFig3cByzantineTraffic(b *testing.B) { benchExperiment(b, "fig3c") }

// BenchmarkTab1Broadcast regenerates Table 1: round and communication
// complexity of reliable broadcast across the implemented protocols.
func BenchmarkTab1Broadcast(b *testing.B) { benchExperiment(b, "tab1") }

// BenchmarkTab2RNG regenerates Table 2: round and communication
// complexity of the distributed RNG protocols.
func BenchmarkTab2RNG(b *testing.B) { benchExperiment(b, "tab2") }

// BenchmarkSanitization regenerates the Appendix D experiment: geometric
// decay of the byzantine population under halt-on-divergence.
func BenchmarkSanitization(b *testing.B) { benchExperiment(b, "sanitize") }

// BenchmarkBiasResistance regenerates the unbiasedness experiment:
// attacked signature-RNG versus attacked ERNG.
func BenchmarkBiasResistance(b *testing.B) { benchExperiment(b, "bias") }

// BenchmarkClusterBroadcast measures one full ERB broadcast (setup
// excluded) on a 64-node cluster through the public API.
func BenchmarkClusterBroadcast(b *testing.B) {
	cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: 64, T: 31, Seed: 1})
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

// BenchmarkClusterBroadcastMany measures the multiplexed runtime: 32
// concurrent ERB instances over one 16-node cluster, admitted 8 at a
// time. Small-scale smoke coverage of the mux path; sustained throughput
// at N=64 is the erb_mux workload of `go run ./bench`.
func BenchmarkClusterBroadcastMany(b *testing.B) {
	cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: 16, T: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	reqs := make([]sgxp2p.BroadcastRequest, 32)
	for j := range reqs {
		reqs[j] = sgxp2p.BroadcastRequest{
			Initiator: sgxp2p.NodeID(j % cluster.N()),
			Value:     sgxp2p.ValueFromString("bench"),
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results, err := cluster.BroadcastMany(reqs, sgxp2p.MuxOptions{MaxInFlight: 8})
		if err != nil {
			b.Fatal(err)
		}
		if len(results) != len(reqs) {
			b.Fatalf("got %d results, want %d", len(results), len(reqs))
		}
	}
}

// BenchmarkClusterRandom measures one full basic-ERNG epoch on a 16-node
// cluster through the public API.
func BenchmarkClusterRandom(b *testing.B) {
	cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: 16, T: 7, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.GenerateRandom(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterSetup measures deployment construction — enclave launch,
// attestation of the roster, sequence-number exchange; channels open at
// their pair's first frame, so none is paid for here — at three sizes:
// model crypto at 128 and 2048 nodes (B/op is what an idle cluster of
// that size holds) and real crypto at 256, the beacon_opt shape.
func BenchmarkClusterSetup(b *testing.B) {
	for _, c := range []struct {
		name string
		opts sgxp2p.Options
	}{
		{"model-n128", sgxp2p.Options{N: 128, T: 63}},
		{"real-n256", sgxp2p.Options{N: 256, T: 85, RealCrypto: true}},
		{"model-n2048", sgxp2p.Options{N: 2048, T: 682}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c.opts.Seed = int64(i)
				if _, err := sgxp2p.NewCluster(c.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFirstEmission measures what a beacon's first client waits for:
// cluster, beacon and one sampled Algorithm 6 epoch from cold, the epoch
// paying the key agreement of the pairs its cluster uses.
func BenchmarkFirstEmission(b *testing.B) {
	b.Run("real-n256", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: 256, T: 85, Seed: int64(i), RealCrypto: true})
			if err != nil {
				b.Fatal(err)
			}
			beacon, err := cluster.NewBeacon(sgxp2p.BeaconOptimized)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := beacon.RunEpoch(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation regenerates the design-choice ablations (P4
// halt-on-divergence on/off, early stopping vs deadline).
func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablate") }

// BenchmarkStandingBeaconHeap measures what a standing sampled beacon
// keeps: 40 Algorithm 6 epochs on one cluster (real crypto at N = 256,
// the beacon_opt shape, and model crypto at N = 1024), then the live heap
// after a collection, whole and per link end the epochs opened. A
// per-peer object sized from N, or one kept per link ever used, shows
// here as a number before it shows in a profile.
func BenchmarkStandingBeaconHeap(b *testing.B) {
	for _, c := range []struct {
		name string
		opts deploy.Options
	}{
		{"real-n256", deploy.Options{N: 256, T: 85, RealCrypto: true}},
		{"model-n1024", deploy.Options{N: 1024, T: 341}},
	} {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				c.opts.Seed = int64(i) + 1
				d, err := deploy.New(c.opts)
				if err != nil {
					b.Fatal(err)
				}
				bc, err := beacon.New(d, beacon.Config{T: c.opts.T, Mode: beacon.ModeOptimized})
				if err != nil {
					b.Fatal(err)
				}
				if _, err := bc.RunEpochs(40); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var ms runtime.MemStats
				runtime.ReadMemStats(&ms)
				b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "live-MiB")
				b.ReportMetric(float64(ms.HeapAlloc)/float64(d.LinksEstablished()), "B/link-end-used")
				runtime.KeepAlive(bc)
			}
		})
	}
}
