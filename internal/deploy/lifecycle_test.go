package deploy_test

import (
	"reflect"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// acceptedBy fails unless every listed node accepted v from initiator.
func acceptedBy(t *testing.T, engines []*erb.Engine, initiator wire.NodeID, v wire.Value, nodes ...int) {
	t.Helper()
	for _, i := range nodes {
		res, ok := engines[i].Result(initiator)
		if !ok || !res.Accepted || res.Value != v {
			t.Fatalf("node %d: ok=%v res=%+v, want %x accepted", i, ok, res, v[:1])
		}
	}
}

// linksHeld is every peer's count of established link ends.
func linksHeld(d *deploy.Deployment) []uint64 {
	held := make([]uint64, len(d.Peers))
	for i, p := range d.Peers {
		held[i] = p.Stats().LinksEstablished
	}
	return held
}

// TestCrashRestartRederivesSessionKeys is the crash–restart regression. A
// full-mesh instance leaves one key-cache entry per pair; a node stopped
// in the middle of it and rebooted re-attests with the identical quote
// and re-derives the identical pairwise session keys through the cache,
// so the cache does not grow and the survivors keep the links they hold —
// establishing is the only thing that writes a peer's link table, and
// their counts stand still — while the in-flight broadcast settles among
// the survivors with the node down.
func TestCrashRestartRederivesSessionKeys(t *testing.T) {
	const n = 5
	d := newDeployment(t, n, 1, 424)
	if got := d.KeyCacheLen(); got != 0 {
		t.Fatalf("%d pairs derived by New: channels are opened by the instances that use them", got)
	}

	// Epoch 1: broadcast from node 0; node 3's machine dies mid-round-2.
	v1 := wire.Value{0xC4}
	d.Sim.Schedule(d.Sim.Now()+3*d.Opts.Delta, func() {
		if err := d.Stop(3); err != nil {
			t.Errorf("mid-epoch stop: %v", err)
		}
	})
	engines, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}, v1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Stopped(3) {
		t.Fatal("node 3 not stopped after scheduled crash")
	}
	acceptedBy(t, engines, 0, v1, 0, 1, 2, 4)
	if got := d.KeyCacheLen(); got != n*(n-1)/2 {
		t.Fatalf("key cache holds %d pairs after a full-mesh instance, want %d", got, n*(n-1)/2)
	}
	heldBefore := linksHeld(d)
	for i, held := range heldBefore {
		if held != n-1 {
			t.Fatalf("node %d holds %d links after a full-mesh instance, want %d", i, held, n-1)
		}
	}
	keysBefore, err := d.Encls[3].SessionKeys(d.Encls[0].DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	quoteBefore := d.Roster.Quotes[3]

	// Reboot. Same deployment seed ⇒ same enclave rng stream ⇒ same DH
	// keypair ⇒ identical quote and, via the key cache, identical session
	// keys — no cache growth, no renegotiation.
	if err := d.Restart(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if d.Stopped(3) {
		t.Fatal("node 3 still marked stopped after restart")
	}
	if !reflect.DeepEqual(d.Roster.Quotes[3], quoteBefore) {
		t.Fatal("restarted node re-attested with a different quote")
	}
	keysAfter, err := d.Encls[3].SessionKeys(d.Encls[0].DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if keysAfter != keysBefore {
		t.Fatal("restarted enclave derived different session keys")
	}

	// Epoch 2: the restarted node participates fully — its fresh links
	// must interoperate with the survivors' original cipher state in both
	// directions, and its copied sequence table must pass freshness.
	v2 := wire.Value{0xAF}
	engines, err = d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{3}}, v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	acceptedBy(t, engines, 3, v2, 0, 1, 2, 3, 4)
	if got := d.KeyCacheLen(); got != n*(n-1)/2 {
		t.Fatalf("key cache grew across restart: %d -> %d (keys were re-derived, not re-used)", n*(n-1)/2, got)
	}
	if held := linksHeld(d); !reflect.DeepEqual(held, heldBefore) {
		t.Fatalf("links held %v -> %v across restart: a survivor rebuilt a link, or the rebooted node is short of its %d", heldBefore, held, n-1)
	}
}

// TestCrashBeforeFirstUse is the sibling case: the node crashes and
// reboots before any pair was used, so nothing was derived from its first
// quote. The survivors derive their ends afterwards, from the re-attested
// quote the shared roster now holds, and it is the same quote.
func TestCrashBeforeFirstUse(t *testing.T) {
	const n = 5
	d := newDeployment(t, n, 1, 425)
	quoteBefore := d.Roster.Quotes[3]
	if err := d.Stop(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(3); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Roster.Quotes[3], quoteBefore) {
		t.Fatal("restarted node re-attested with a different quote")
	}
	if cache, links := d.KeyCacheLen(), d.LinksEstablished(); cache != 0 || links != 0 {
		t.Fatalf("%d pairs, %d link ends derived by a crash and a restart alone", cache, links)
	}
	v := wire.Value{0x5B}
	engines, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{3}}, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	acceptedBy(t, engines, 3, v, 0, 1, 2, 3, 4)
	if cache, links := d.KeyCacheLen(), d.LinksEstablished(); cache != n*(n-1)/2 || links != n*(n-1) {
		t.Fatalf("%d pairs, %d link ends after the first instance, want %d, %d", cache, links, n*(n-1)/2, n*(n-1))
	}
}

// TestRestartValidation covers the lifecycle error paths.
func TestRestartValidation(t *testing.T) {
	d := newDeployment(t, 4, 1, 7)
	if err := d.Restart(2); err != deploy.ErrNotStopped {
		t.Fatalf("restart of running node: %v, want ErrNotStopped", err)
	}
	if err := d.Stop(9); err == nil {
		t.Fatal("stop of out-of-range node succeeded")
	}
	if err := d.Stop(2); err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(2); err != nil {
		t.Fatalf("double stop must be a no-op: %v", err)
	}
	if !d.Stopped(2) || d.Stopped(0) {
		t.Fatal("Stopped() bookkeeping wrong")
	}
}

// TestRestartNeedsLivePeer: with every other node stopped there is nobody
// to copy the sequence table from.
func TestRestartNeedsLivePeer(t *testing.T) {
	d := newDeployment(t, 4, 1, 11)
	for id := 0; id < 4; id++ {
		if err := d.Stop(wire.NodeID(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Restart(0); err != deploy.ErrNoLivePeer {
		t.Fatalf("restart with no live peers: %v, want ErrNoLivePeer", err)
	}
}

// TestRealCryptoRestart repeats the key-identity assertion with the real
// AES+HMAC sealer and real key exchange.
func TestRealCryptoRestart(t *testing.T) {
	d, err := deploy.New(deploy.Options{N: 4, T: 1, Seed: 99, RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	keysBefore, err := d.Encls[1].SessionKeys(d.Encls[2].DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Stop(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(1); err != nil {
		t.Fatal(err)
	}
	keysAfter, err := d.Encls[1].SessionKeys(d.Encls[2].DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if keysAfter != keysBefore {
		t.Fatal("real-crypto restart derived different session keys")
	}
	res := broadcast(t, d, 1, wire.Value{0x42})
	for i := 0; i < 4; i++ {
		if r, ok := res[wire.NodeID(i)]; !ok || !r.Accepted {
			t.Fatalf("node %d: broadcast after real-crypto restart failed: %+v", i, r)
		}
	}
}
