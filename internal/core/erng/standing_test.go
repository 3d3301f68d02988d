package erng_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"testing"

	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/telemetry"
)

// standingIdentity is what a fixed run of sampled Algorithm 6 epochs
// produced: digests of every node's results and cluster views, the
// network's traffic and the trace's fingerprint.
type standingIdentity struct {
	results, views string
	traffic        simnet.Traffic
	events         uint64
	trace          uint64
}

// runStandingSampled runs epochs sampled Algorithm 6 epochs on one
// standing N = 256 deployment — the beacon_opt shape: real crypto,
// batching and lanes on — with a tracer attached, and condenses them.
func runStandingSampled(t *testing.T, seed int64, epochs int) standingIdentity {
	t.Helper()
	const n, byz = 256, 85
	tr := telemetry.New(telemetry.Options{})
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed, RealCrypto: true, Trace: tr})
	if err != nil {
		t.Fatal(err)
	}
	results, views := sha256.New(), sha256.New()
	for e := 0; e < epochs; e++ {
		protos, err := d.Epoch(byz, true, nil)
		if err != nil {
			t.Fatalf("epoch %d: %v", e, err)
		}
		for i, p := range protos {
			o := p.(*erng.Optimized)
			res, ok := o.Result()
			writeResult(results, i, ok, res)
			ids := o.ClusterView()
			putU32(views, uint32(i), uint32(len(ids)))
			for _, id := range ids {
				putU32(views, uint32(id))
			}
		}
		// The hash covers released events; only memory is given back.
		tr.Release(tr.EventCount())
	}
	return standingIdentity{
		results: fmt.Sprintf("%x", results.Sum(nil)),
		views:   fmt.Sprintf("%x", views.Sum(nil)),
		traffic: d.Net.Traffic(),
		events:  tr.EventCount(),
		trace:   tr.Hash(),
	}
}

func putU32(h hash.Hash, vs ...uint32) {
	for _, v := range vs {
		h.Write(binary.LittleEndian.AppendUint32(nil, v))
	}
}

func writeResult(h hash.Hash, node int, decided bool, r erng.Result) {
	flags := uint32(0)
	if decided {
		flags |= 1
	}
	if r.OK {
		flags |= 2
	}
	putU32(h, uint32(node), flags, r.Round, uint32(len(r.Contributors)))
	for _, id := range r.Contributors {
		putU32(h, uint32(id))
	}
	h.Write(r.Value[:])
	h.Write(binary.LittleEndian.AppendUint64(nil, uint64(r.At)))
}

// TestStandingSampledBeaconIdentity pins 30 epochs of the benchmark's
// sampled beacon at seed 1 to what they produced before the epoch state
// became dense id sets and FINAL sets were tallied by content: every
// node's decision and cluster view, the traffic and the trace. A change
// to how a node keeps its epoch state must not change what it does.
func TestStandingSampledBeaconIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("30 real-crypto epochs at N = 256")
	}
	got := runStandingSampled(t, 1, 30)
	want := standingIdentity{
		results: "7ac8dae314dee48ae5e4a1fb80ce67ce438fe9336063f6e130d09790dbf193ed",
		views:   "06436a54694f1bc28bc68f484dc4419897b918815289e3477ce3e0fc1d840243",
		traffic: simnet.Traffic{Messages: 560190, Bytes: 129037650},
		events:  1667259,
		trace:   12403396969977796194,
	}
	if got != want {
		t.Fatalf("30 sampled epochs at seed 1:\n got %+v\nwant %+v", got, want)
	}
}
