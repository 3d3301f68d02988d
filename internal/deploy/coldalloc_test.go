package deploy_test

import (
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// Objects a cold N = 16 real-crypto deployment may allocate from New
// through its first broadcast: the count measured when delivery records
// became their own events, built in blocks, and a key-agreement group's
// ciphers were carved from one array (935 with the kernels, 4069 on the
// portable paths of -tags purego; 1690 and 4824 before), plus 10 %.
const (
	coldAllocsKernel   = 1030
	coldAllocsPortable = 4480
)

// TestColdDeploymentAllocs guards what a fresh deployment costs in
// objects — the setup every short adversarial run pays: New, the batched
// key agreement of EstablishLinks and one broadcast. A per-frame or
// per-pair object creeping back into simnet, vclock, the enclave's
// batches or the runtime's setup shows here as N² more.
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
