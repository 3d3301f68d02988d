package deploy_test

import (
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// Objects a cold N = 16 real-crypto deployment may allocate from New
// through its first broadcast: the count measured once the enclave
// streams were ChaCha8 states carved per deployment and the link
// schedule carved its peers' tables, scratch and nonce pools (682 with
// the kernels, 3712 on the portable paths of -tags purego; 710 and 3739
// with a math/rand source per stream and per-peer tables, 759 and 3893
// through the key cache, 935 and 4069 before a peer's tables were dense,
// 1690 and 4824 before delivery records and ciphers were built in
// blocks), plus 10 %. At this seed the simulator's bucket arrays take a
// draw-dependent share: over seeds 1–12 the kernel count averages 633.
const (
	coldAllocsKernel   = 750
	coldAllocsPortable = 4083
)

// TestColdDeploymentAllocs guards what a fresh deployment costs in
// objects — the setup every short adversarial run pays: New, the link
// schedule of EstablishLinks and one broadcast. A per-frame or
// per-pair object creeping back into simnet, vclock, the enclave's
// batches or the runtime's setup shows here as N² more, a per-peer or
// per-batch one as N more.
func TestColdDeploymentAllocs(t *testing.T) {
	const n = 16
	cold := func() {
		d, err := deploy.New(deploy.Options{N: n, T: 5, Seed: 3, RealCrypto: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.EstablishLinks(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}, wire.Value{1}, nil); err != nil {
			t.Fatal(err)
		}
	}
	bound := coldAllocsKernel
	if !shareable(t) {
		bound = coldAllocsPortable
	}
	allocs := testing.AllocsPerRun(10, cold)
	if allocs > float64(bound) {
		t.Fatalf("a cold N = %d deployment allocated %.0f objects through its first broadcast, want at most %d", n, allocs, bound)
	}
	t.Logf("%.0f objects per cold deployment (bound %d)", allocs, bound)
}
