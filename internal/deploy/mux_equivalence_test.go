package deploy_test

import (
	"bytes"
	"slices"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// These tests pin the multiplexing equivalence contract: hosting k
// protocol instances behind one runtime.Mux changes how many epochs the
// lockstep schedule spans and how frames coalesce on the wire — and
// nothing a protocol can observe. Every instance must decide exactly what
// the k-epoch serial run of the same seed decides, with rounds normalized
// to each instance's own start round (absolute rounds differ by
// construction: that is the point of packing instances into one run).

// muxValue derives the deterministic payload of request j.
func muxValue(j int) wire.Value {
	var v wire.Value
	v[0] = byte(j + 1)
	v[1] = byte(j >> 8)
	v[31] = 0x5A
	return v
}

// normRound maps an absolute decision round to the instance-relative
// round a serial epoch (start round 1) would report.
func normRound(round, startRound uint32) uint32 {
	return round - (startRound - 1)
}

// runSerialERBMany runs k sequential ERB epochs (initiators round-robin)
// on one deployment and returns results[j][node] for request j.
func runSerialERBMany(t *testing.T, n, tb, k int, seed int64, disableBatching bool) [][]erb.Result {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: seed, DisableBatching: disableBatching})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]erb.Result, k)
	for j := 0; j < k; j++ {
		initiator := wire.NodeID(j % n)
		engines := make([]*erb.Engine, n)
		for i, p := range d.Peers {
			eng, eerr := erb.NewEngine(p, erb.Config{T: tb, ExpectedInitiators: []wire.NodeID{initiator}})
			if eerr != nil {
				t.Fatal(eerr)
			}
			engines[i] = eng
		}
		engines[initiator].SetInput(muxValue(j))
		for i, p := range d.Peers {
			p.Start(engines[i], engines[i].Rounds())
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		out[j] = make([]erb.Result, n)
		for i, eng := range engines {
			res, ok := eng.Result(initiator)
			if !ok {
				t.Fatalf("epoch %d node %d has no ERB result", j, i)
			}
			out[j][i] = res
		}
		for _, p := range d.Peers {
			p.BumpSeqs()
		}
	}
	return out
}

// runMuxERBMany runs the same k broadcasts concurrently behind one mux
// per node and returns results[j][node] with rounds normalized to each
// instance's start round.
func runMuxERBMany(t *testing.T, n, tb, k, maxInFlight int, seed int64, disableBatching bool) [][]erb.Result {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: seed, DisableBatching: disableBatching})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*erb.Engine, n)
	handles := make([][]*runtime.Instance, n)
	muxes := make([]*runtime.Mux, n)
	for i, p := range d.Peers {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: maxInFlight})
		muxes[i] = m
		engines[i] = make([]*erb.Engine, k)
		handles[i] = make([]*runtime.Instance, k)
		self := p.ID()
		engs := engines[i]
		for j := 0; j < k; j++ {
			initiator := wire.NodeID(j % n)
			value := muxValue(j)
			slot := j
			it, serr := m.Spawn(tb+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
				eng, eerr := erb.NewEngine(inst, erb.Config{
					T:                  tb,
					StartRound:         inst.StartRound(),
					ExpectedInitiators: []wire.NodeID{initiator},
				})
				if eerr != nil {
					return nil, eerr
				}
				if self == initiator {
					eng.SetInput(value)
				}
				engs[slot] = eng
				return eng, nil
			})
			if serr != nil {
				t.Fatal(serr)
			}
			handles[i][j] = it
		}
		p.Start(m, m.PlannedRounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][]erb.Result, k)
	for j := 0; j < k; j++ {
		initiator := wire.NodeID(j % n)
		out[j] = make([]erb.Result, n)
		for i := 0; i < n; i++ {
			if engines[i][j] == nil {
				t.Fatalf("node %d request %d never built (err=%v)", i, j, handles[i][j].Err())
			}
			res, ok := engines[i][j].Result(initiator)
			if !ok {
				t.Fatalf("node %d request %d has no ERB result", i, j)
			}
			res.Round = normRound(res.Round, handles[i][j].StartRound())
			out[j][i] = res
		}
	}
	return out
}

// TestMuxSerialEquivalenceERB checks that multiplexed broadcasts decide
// exactly what the serial epochs decide — with admission both unbounded
// (all windows overlap) and bounded (staggered admission), and with
// batching both on and off.
func TestMuxSerialEquivalenceERB(t *testing.T) {
	const n, tb, k = 5, 2, 6
	for _, disableBatching := range []bool{false, true} {
		serial := runSerialERBMany(t, n, tb, k, 7, disableBatching)
		for _, maxInFlight := range []int{0, 2} {
			mux := runMuxERBMany(t, n, tb, k, maxInFlight, 7, disableBatching)
			for j := 0; j < k; j++ {
				for i := 0; i < n; i++ {
					s, m := serial[j][i], mux[j][i]
					// At is excluded: virtual time depends on how many
					// epochs preceded the decision. Acceptance, value and
					// the instance-relative decision round must match.
					if s.Accepted != m.Accepted || s.Value != m.Value || s.Round != m.Round {
						t.Errorf("batchingOff=%v inflight=%d request %d node %d: serial %+v, mux %+v",
							disableBatching, maxInFlight, j, i, s, m)
					}
				}
			}
		}
	}
}

// runSerialERNGMany runs k sequential basic-ERNG epochs on one deployment.
func runSerialERNGMany(t *testing.T, n, tb, k int, seed int64, disableBatching bool) [][]erng.Result {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: seed, DisableBatching: disableBatching})
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]erng.Result, k)
	for j := 0; j < k; j++ {
		protos := make([]*erng.Basic, n)
		rounds := 0
		for i, p := range d.Peers {
			proto, perr := erng.NewBasic(p, tb)
			if perr != nil {
				t.Fatal(perr)
			}
			protos[i] = proto
			rounds = proto.Rounds()
		}
		for i, p := range d.Peers {
			p.Start(protos[i], rounds)
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		out[j] = make([]erng.Result, n)
		for i, proto := range protos {
			res, ok := proto.Result()
			if !ok {
				t.Fatalf("epoch %d node %d produced no ERNG output", j, i)
			}
			out[j][i] = res
		}
		for _, p := range d.Peers {
			p.BumpSeqs()
		}
	}
	return out
}

// runMuxERNGMany runs k basic-ERNG instances behind one mux per node.
func runMuxERNGMany(t *testing.T, n, tb, k, maxInFlight int, seed int64, disableBatching bool) [][]erng.Result {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: seed, DisableBatching: disableBatching})
	if err != nil {
		t.Fatal(err)
	}
	protos := make([][]*erng.Basic, n)
	handles := make([][]*runtime.Instance, n)
	for i, p := range d.Peers {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: maxInFlight})
		protos[i] = make([]*erng.Basic, k)
		handles[i] = make([]*runtime.Instance, k)
		ps := protos[i]
		for j := 0; j < k; j++ {
			slot := j
			it, serr := m.Spawn(tb+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
				proto, perr := erng.NewBasicAt(inst, tb, inst.StartRound())
				if perr != nil {
					return nil, perr
				}
				ps[slot] = proto
				return proto, nil
			})
			if serr != nil {
				t.Fatal(serr)
			}
			handles[i][j] = it
		}
		p.Start(m, m.PlannedRounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][]erng.Result, k)
	for j := 0; j < k; j++ {
		out[j] = make([]erng.Result, n)
		for i := 0; i < n; i++ {
			res, ok := protos[i][j].Result()
			if !ok {
				t.Fatalf("node %d instance %d produced no ERNG output", i, j)
			}
			res.Round = normRound(res.Round, handles[i][j].StartRound())
			out[j][i] = res
		}
	}
	return out
}

// TestMuxSerialEquivalenceERNG checks that multiplexed ERNG epochs emit
// the same random values as the serial epochs: the per-node enclave draw
// order is spawn order, which is epoch order, so the outputs — not just
// their distribution — coincide per seed.
func TestMuxSerialEquivalenceERNG(t *testing.T) {
	const n, tb, k = 5, 2, 4
	for _, disableBatching := range []bool{false, true} {
		serial := runSerialERNGMany(t, n, tb, k, 11, disableBatching)
		for _, maxInFlight := range []int{0, 2} {
			mux := runMuxERNGMany(t, n, tb, k, maxInFlight, 11, disableBatching)
			for j := 0; j < k; j++ {
				for i := 0; i < n; i++ {
					s, m := serial[j][i], mux[j][i]
					if s.OK != m.OK || s.Value != m.Value || !slices.Equal(s.Contributors, m.Contributors) {
						t.Errorf("batchingOff=%v inflight=%d epoch %d node %d: serial %+v, mux %+v",
							disableBatching, maxInFlight, j, i, s, m)
					}
				}
			}
		}
	}
}

// muxTraceRun runs a k-instance multiplexed ERB workload under a tracer
// and returns the exported JSONL stream.
func muxTraceRun(t *testing.T, seed int64) []byte {
	t.Helper()
	tracer := telemetry.New(telemetry.Options{})
	d, err := deploy.New(deploy.Options{N: 4, T: 1, Seed: seed, Trace: tracer})
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	for _, p := range d.Peers {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: 2})
		self := p.ID()
		for j := 0; j < k; j++ {
			initiator := wire.NodeID(j % 4)
			value := muxValue(j)
			if _, serr := m.Spawn(3, func(inst *runtime.Instance) (runtime.Protocol, error) {
				eng, eerr := erb.NewEngine(inst, erb.Config{
					T:                  1,
					StartRound:         inst.StartRound(),
					ExpectedInitiators: []wire.NodeID{initiator},
				})
				if eerr != nil {
					return nil, eerr
				}
				if self == initiator {
					eng.SetInput(value)
				}
				return eng, nil
			}); serr != nil {
				t.Fatal(serr)
			}
		}
		p.Start(m, m.PlannedRounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.ExportJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMuxTraceDeterminismWithInstances checks that two multiplexed runs
// of the same seed export byte-identical traces, and that the stream
// actually attributes events to more than one instance id — the
// observability contract of the multiplexed runtime.
func TestMuxTraceDeterminismWithInstances(t *testing.T) {
	a := muxTraceRun(t, 21)
	b := muxTraceRun(t, 21)
	if !bytes.Equal(a, b) {
		t.Fatal("multiplexed trace streams differ across runs of the same seed")
	}
	events, err := telemetry.ReadJSONL(bytes.NewReader(a))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[uint32]bool{}
	for _, ev := range events {
		if ev.Instance != 0 {
			seen[ev.Instance] = true
		}
	}
	if len(seen) < 2 {
		t.Fatalf("trace attributes events to %d instances, want >= 2", len(seen))
	}
}
