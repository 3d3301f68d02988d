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
// each envelope's trailing 32 tag bytes and still carries the values
// recorded on the pre-coalescing tree's envelope stream (PR 5): frame
// count, order, sizes, headers and payloads have not moved since. The
// full-envelope pair also covers the tag bytes, so it moves whenever the
// sealer's checksum does: it was re-recorded when the ModelSealer's
// byte-serial FNV-1a became the word-parallel keyed fold (PR 12), and
// the tag-masked pair — pinned on the parent tree first, unchanged
// after — is the proof that only the tag bytes changed. A change in the
// masked pair means the unbatched wire format or send schedule drifted.
const (
	goldenERBWireHash  uint64 = 0x492e49ab4f39ec89
	goldenERNGWireHash uint64 = 0xd109dbb9c385aedd

	goldenERBMaskedHash  uint64 = 0x1a55961a2745ab11
	goldenERNGMaskedHash uint64 = 0xa6158b2bbd43af55
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

// runGoldenERB replays the reference ERB scenario: N=5, T=2, seed 1,
// initiator 0 broadcasting a fixed value, full round budget.
func runGoldenERB(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.N, opts.T, opts.Seed = 5, 2, 1
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*erb.Engine, len(d.Peers))
	for i, p := range d.Peers {
		eng, eerr := erb.NewEngine(p, erb.Config{T: 2, ExpectedInitiators: []wire.NodeID{0}})
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

// runGoldenERNG replays the reference basic-ERNG scenario: N=5, T=2,
// seed 3 (all five nodes initiate concurrently — the batching-heavy
// traffic shape).
func runGoldenERNG(t *testing.T, opts deploy.Options) *wireHasher {
	t.Helper()
	rec := newWireHasher()
	opts.N, opts.T, opts.Seed = 5, 2, 3
	opts.Wrap = rec.Wrap
	d, err := deploy.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	protos := make([]*erng.Basic, len(d.Peers))
	rounds := 0
	for i, p := range d.Peers {
		proto, perr := erng.NewBasic(p, 2)
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
	opts := deploy.Options{DisableBatching: true}
	for _, sc := range []struct {
		name         string
		got          *wireHasher
		full, masked uint64
	}{
		{"ERB", runGoldenERB(t, opts), goldenERBWireHash, goldenERBMaskedHash},
		{"ERNG", runGoldenERNG(t, opts), goldenERNGWireHash, goldenERNGMaskedHash},
	} {
		if got := uint64(sc.got.masked); got != sc.masked {
			t.Errorf("%s unbatched tag-masked wire hash %#x, want %#x (frames, headers or payloads drifted)", sc.name, got, sc.masked)
		}
		if got := uint64(sc.got.full); got != sc.full {
			t.Errorf("%s unbatched wire hash %#x, want %#x (envelope stream drifted)", sc.name, got, sc.full)
		}
	}
}
