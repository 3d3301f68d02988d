package deploy_test

import (
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// agreementsSince is what the process computed in X25519 agreements since
// before.
func agreementsSince(before xcrypto.AgreementCounts) xcrypto.AgreementCounts {
	now := xcrypto.Agreements()
	return xcrypto.AgreementCounts{
		KernelCalls:      now.KernelCalls - before.KernelCalls,
		KernelAgreements: now.KernelAgreements - before.KernelAgreements,
		ECDH:             now.ECDH - before.ECDH,
	}
}

// TestClosedMeshLaddersEightPairs: the link schedule of a closed N = 64
// real-crypto mesh agrees its 2016 pairs in exactly 252 kernel calls of
// eight pairs each, with no crypto/ecdh agreement, whatever the number of
// workers — every chunk of the schedule is whole ladders — and opens all
// N(N−1) ends with nothing left in the key cache. A build without the
// kernel computes the same 2016 agreements through crypto/ecdh.
func TestClosedMeshLaddersEightPairs(t *testing.T) {
	const n, pairs = 64, 64 * 63 / 2
	want := xcrypto.AgreementCounts{KernelCalls: pairs / xcrypto.BatchLanes, KernelAgreements: pairs}
	if !xcrypto.X25519Kernel() {
		want = xcrypto.AgreementCounts{ECDH: pairs}
	}
	for _, procs := range []int{1, 2, 4} {
		setProcs(t, procs)
		d := realDeployment(t, n, 21, 5)
		before := xcrypto.Agreements()
		if err := d.EstablishLinks(); err != nil {
			t.Fatal(err)
		}
		if got := agreementsSince(before); got != want {
			t.Errorf("procs=%d: the schedule cost %+v, want %+v", procs, got, want)
		}
		if derived, waiting, links := d.KeysDerived(), d.KeyCacheLen(), d.LinksEstablished(); derived != pairs || waiting != 0 || links != n*(n-1) {
			t.Errorf("procs=%d: %d agreements, %d pairs waiting, %d link ends, want %d, none, %d", procs, derived, waiting, links, pairs, n*(n-1))
		}
	}
}

// TestRestartedEndsLadderTogether: after a full-mesh instance and a
// restart, the restarted node's 63 ends are in no pair of the schedule —
// the survivors hold theirs — and open as one batch of its own through
// the key cache, eight to a kernel call, each left waiting for an end that
// never asks.
func TestRestartedEndsLadderTogether(t *testing.T) {
	const n, pairs = 64, 64 * 63 / 2
	d := realDeployment(t, n, 21, 5)
	if _, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}, wire.Value{1}, nil); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(7); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(7); err != nil {
		t.Fatal(err)
	}
	before := xcrypto.Agreements()
	if err := d.EstablishLinks(); err != nil {
		t.Fatal(err)
	}
	want := xcrypto.AgreementCounts{KernelCalls: 8, KernelAgreements: n - 1}
	if !xcrypto.X25519Kernel() {
		want = xcrypto.AgreementCounts{ECDH: n - 1}
	}
	if got := agreementsSince(before); got != want {
		t.Errorf("the restarted node's ends cost %+v, want %+v", got, want)
	}
	if derived, waiting, links := d.KeysDerived(), d.KeyCacheLen(), d.LinksEstablished(); derived != pairs+n-1 || waiting != n-1 || links != n*(n-1) {
		t.Errorf("%d agreements, %d pairs waiting, %d link ends, want %d, %d, %d", derived, waiting, links, pairs+n-1, n-1, n*(n-1))
	}
}

// BenchmarkEstablishLinks times the link schedule of a closed mesh, the
// deployment built outside the timer: real crypto at erb_chain_cold's
// N = 64 and the model key exchange at beacon_opt's N = 256. Besides
// ms/op and allocs/op it reports the agreements per kernel call, 8.0 on a
// closed mesh with the kernel (none are made by the model exchange).
func BenchmarkEstablishLinks(b *testing.B) {
	for _, c := range []struct {
		name string
		n, t int
		real bool
	}{{"real-n64", 64, 31, true}, {"model-n256", 256, 85, false}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			before := xcrypto.Agreements()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d, err := deploy.New(deploy.Options{N: c.n, T: c.t, Seed: int64(i + 1), RealCrypto: c.real})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				if err := d.EstablishLinks(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/1e3/float64(b.N), "ms/op")
			if got := agreementsSince(before); got.KernelCalls > 0 {
				b.ReportMetric(float64(got.KernelAgreements)/float64(got.KernelCalls), "agreements/call")
			}
		})
	}
}
