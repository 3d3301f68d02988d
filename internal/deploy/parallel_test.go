package deploy_test

import (
	"reflect"
	"runtime"
	"testing"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// setProcs sets GOMAXPROCS — the size of the setup worker pool — for the
// rest of the test.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// TestDeploymentIdenticalAcrossWorkerCounts pins the determinism contract
// of the parallel setup: for a fixed seed, a deployment built serially
// (GOMAXPROCS=1) and one built with many workers are indistinguishable —
// same quotes, same protocol outcome, same wire traffic.
func TestDeploymentIdenticalAcrossWorkerCounts(t *testing.T) {
	build := func(procs int) (*deploy.Deployment, error) {
		setProcs(t, procs)
		return deploy.New(deploy.Options{N: 16, T: 7, Seed: 42})
	}
	serial, err := build(1)
	if err != nil {
		t.Fatal(err)
	}
	parallel8, err := build(8)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(serial.Roster.Quotes, parallel8.Roster.Quotes) {
		t.Fatal("rosters differ between worker counts")
	}
	for id := wire.NodeID(0); int(id) < 16; id++ {
		for peer := 0; peer < 16; peer++ {
			if serial.Peers[peer].SeqOf(id) != parallel8.Peers[peer].SeqOf(id) {
				t.Fatalf("seq table differs at peer %d id %d", peer, id)
			}
		}
	}

	resSerial := broadcast(t, serial, 3, wire.Value{0xCA})
	resParallel := broadcast(t, parallel8, 3, wire.Value{0xCA})
	if !reflect.DeepEqual(resSerial, resParallel) {
		t.Fatalf("broadcast results differ:\nserial:   %v\nparallel: %v", resSerial, resParallel)
	}
	ts, tp := serial.Net.Traffic(), parallel8.Net.Traffic()
	if ts != tp {
		t.Fatalf("traffic differs: serial %+v parallel %+v", ts, tp)
	}
}

// TestRealCryptoParallelDeploy exercises the parallel construction with
// the real ECDH derivations and sealer (the heavier path the worker pool
// exists for).
func TestRealCryptoParallelDeploy(t *testing.T) {
	setProcs(t, 4)
	d, err := deploy.New(deploy.Options{N: 8, T: 3, Seed: 5, RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	res := broadcast(t, d, 0, wire.Value{0x1F})
	for id, r := range res {
		if !r.Accepted || r.Value != (wire.Value{0x1F}) {
			t.Fatalf("node %d: %+v", id, r)
		}
	}
}
