package deploy_test

import (
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Golden FNV-1a fingerprints over every (src, dst, envelope) triple a
// seeded deployment emits, in send order. With batching disabled the
// runtime must keep producing exactly these envelope streams: same
// frames, same bytes, same order.
//
// Two fingerprints are pinned per scenario. The tag-masked pair skips
// each envelope's trailing 32 tag bytes: frame count, order, sizes,
// headers and payloads. Payloads carry enclave draws (values, sequence
// numbers), so both pairs were re-recorded once, when every stream became
// keyed by what it is for (DESIGN.md §8); before that the masked pair had
// not moved since the pre-coalescing tree. The full-envelope pair also
// covers the tag bytes, so it moves whenever the sealer's checksum does:
// it was re-recorded when the ModelSealer's byte-serial FNV-1a became the
// word-parallel keyed fold, and the unchanged tag-masked pair was the
// proof that only the tag bytes changed. A change in the masked pair
// means the unbatched wire format, send schedule or a draw drifted.
const (
	goldenERBWireHash  uint64 = 0xf2b5ebfc917b4dcd
	goldenERNGWireHash uint64 = 0x4ed55b9a8f77d501

	goldenERBMaskedHash  uint64 = 0xb3e53fcd8c9185bd
	goldenERNGMaskedHash uint64 = 0xbb0b5cc51d787441
)

// fnvHash is a running FNV-1a fingerprint.
type fnvHash uint64

func (h *fnvHash) fold(b byte) {
	*h = (*h ^ fnvHash(b)) * 1099511628211
}

func (h *fnvHash) foldU32(x uint32) {
	for i := 0; i < 4; i++ {
		h.fold(byte(x))
		x >>= 8
	}
}

func (h *fnvHash) record(src, dst wire.NodeID, frameLen int, covered []byte) {
	h.foldU32(uint32(src))
	h.foldU32(uint32(dst))
	h.foldU32(uint32(frameLen))
	for _, b := range covered {
		h.fold(b)
	}
}

// wireHasher is a TransportWrapper hook folding every outbound envelope
// into two shared FNV-1a hashes: full over the whole envelope, masked
// over everything but its trailing tag (xcrypto.MACSize bytes under both
// sealers — the ModelSealer matches the real geometry). The simulation is
// single-threaded, so send order (and therefore the fold order) is
// deterministic for a seed.
type wireHasher struct {
	full, masked fnvHash
}

func newWireHasher() *wireHasher {
	return &wireHasher{full: 14695981039346656037, masked: 14695981039346656037}
}

func (w *wireHasher) record(src, dst wire.NodeID, payload []byte) {
	w.full.record(src, dst, len(payload), payload)
	w.masked.record(src, dst, len(payload), payload[:max(len(payload)-xcrypto.MACSize, 0)])
}

// Wrap returns the deploy.TransportWrapper installing the recorder.
func (w *wireHasher) Wrap(id wire.NodeID, tr runtime.Transport) runtime.Transport {
	return &hashingTransport{Transport: tr, id: id, rec: w}
}

type hashingTransport struct {
	runtime.Transport
	id  wire.NodeID
	rec *wireHasher
}

func (t *hashingTransport) Send(dst wire.NodeID, payload []byte) {
	t.rec.record(t.id, dst, payload)
	t.Transport.Send(dst, payload)
}

// runGoldenERB replays a reference ERB scenario: initiator 0
// broadcasting a fixed value, full round budget, at opts' N, T and seed.
func runGoldenERB(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*erb.Engine, len(d.Peers))
	for i, p := range d.Peers {
		eng, eerr := erb.NewEngine(p, erb.Config{T: opts.T, ExpectedInitiators: []wire.NodeID{0}})
		if eerr != nil {
			t.Fatal(eerr)
		}
		engines[i] = eng
	}
	engines[0].SetInput(wire.Value{0xAB, 0xCD, 0xEF})
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		if res, ok := eng.Result(0); !ok || !res.Accepted {
			t.Fatalf("node %d did not accept the golden broadcast", i)
		}
	}
	return rec
}

// runGoldenERNG replays a reference basic-ERNG scenario at opts' N, T
// and seed (every node initiates concurrently — the batching-heavy
// traffic shape).
func runGoldenERNG(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*erng.Basic, len(d.Peers))
	rounds := 0
	for i, p := range d.Peers {
		proto, perr := erng.NewBasic(p, opts.T)
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
	for i, proto := range protos {
		if res, ok := proto.Result(); !ok || !res.OK {
			t.Fatalf("node %d produced no ERNG output", i)
		}
	}
	return rec
}

// TestUnbatchedWireStreamGolden pins the batching-disabled wire stream,
// byte for byte, and separately with the tag bytes masked out.
func TestUnbatchedWireStreamGolden(t *testing.T) {
	for _, sc := range []struct {
		name         string
		got          *wireHasher
		full, masked uint64
	}{
		{"ERB", runGoldenERB(t, deploy.Options{N: 5, T: 2, Seed: 1, DisableBatching: true}), goldenERBWireHash, goldenERBMaskedHash},
		{"ERNG", runGoldenERNG(t, deploy.Options{N: 5, T: 2, Seed: 3, DisableBatching: true}), goldenERNGWireHash, goldenERNGMaskedHash},
	} {
		if got := uint64(sc.got.masked); got != sc.masked {
			t.Errorf("%s unbatched tag-masked wire hash %#x, want %#x (frames, headers or payloads drifted)", sc.name, got, sc.masked)
		}
		if got := uint64(sc.got.full); got != sc.full {
			t.Errorf("%s unbatched wire hash %#x, want %#x (envelope stream drifted)", sc.name, got, sc.full)
		}
	}
}

// runGoldenMux replays a reference multiplexed ERB run at opts' N, T and
// seed: k broadcasts, initiators round-robin, at most inFlight admitted
// at once behind one runtime.Mux per node — the shape whose windows send
// many messages to every destination.
func runGoldenMux(t *testing.T, opts deploy.Options, k, inFlight int) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*erb.Engine, opts.N)
	err = d.RunInstance(func(p *runtime.Peer) (runtime.Protocol, int, error) {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: inFlight})
		engs := make([]*erb.Engine, k)
		engines[p.ID()] = engs
		for j := 0; j < k; j++ {
			initiator, self := wire.NodeID(j%opts.N), p.ID()
			if _, serr := m.Spawn(opts.T+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
				eng, eerr := erb.NewEngine(inst, erb.Config{T: opts.T, StartRound: inst.StartRound(), ExpectedInitiators: []wire.NodeID{initiator}})
				if eerr == nil && self == initiator {
					eng.SetInput(muxValue(j))
				}
				engs[j] = eng
				return eng, eerr
			}); serr != nil {
				return nil, 0, serr
			}
		}
		return m, m.PlannedRounds(), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, engs := range engines {
		for j, eng := range engs {
			if res, ok := eng.Result(wire.NodeID(j % opts.N)); !ok || !res.Accepted {
				t.Fatalf("node %d did not accept request %d", i, j)
			}
		}
	}
	return rec
}

// TestBatchedWireStreamGolden is TestUnbatchedWireStreamGolden with
// batching on: the coalesced frames — which messages share a container,
// in what order, which containers invite a frame-cumulative ACK, and the
// frame ACKs themselves — are pinned byte for byte under the model
// sealer, tag-masked and in full. The values were recorded with the keyed
// draws (the unbatched pair's note says why they moved).
func TestBatchedWireStreamGolden(t *testing.T) {
	for _, sc := range []struct {
		name         string
		run          func() *wireHasher
		full, masked uint64
	}{
		{"ERB N=5", func() *wireHasher { return runGoldenERB(t, deploy.Options{N: 5, T: 2, Seed: 1}) }, 0xf2b5ebfc917b4dcd, 0xb3e53fcd8c9185bd},
		{"ERB N=17", func() *wireHasher { return runGoldenERB(t, deploy.Options{N: 17, T: 8, Seed: 11}) }, 0x7e9182ac8c4fce31, 0xf17be3c488114491},
		{"BroadcastMany N=16", func() *wireHasher { return runGoldenMux(t, deploy.Options{N: 16, T: 7, Seed: 5}, 24, 8) }, 0x5f00d44a9fc01d7e, 0x9be1274bb8637476},
		{"ERNG N=9", func() *wireHasher { return runGoldenERNG(t, deploy.Options{N: 9, T: 4, Seed: 3}) }, 0x302d7c3eb909a1f9, 0x9a87999e3b9cc769},
	} {
		got := sc.run()
		if m := uint64(got.masked); m != sc.masked {
			t.Errorf("%s batched tag-masked wire hash %#x, want %#x (frames, containers or payloads drifted)", sc.name, m, sc.masked)
		}
		if f := uint64(got.full); f != sc.full {
			t.Errorf("%s batched wire hash %#x, want %#x (envelope stream drifted)", sc.name, f, sc.full)
		}
	}
}
