package deploy_test

import (
	"reflect"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
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
// full-mesh instance computes one agreement per pair and leaves nothing in
// the key cache; a node
// stopped in the middle of it and rebooted re-attests with the identical
// quote and derives the identical pairwise session keys again — its n-1
// pairs, whose survivors took the first derivation over long ago — so the
// cache ends with exactly those n-1 entries, which nobody takes and which
// another reboot would take rather than add to, and the survivors keep
// the links they hold — establishing is the only thing that writes a
// peer's link table, and their counts stand still — while the in-flight
// broadcast settles among the survivors with the node down.
func TestCrashRestartRederivesSessionKeys(t *testing.T) {
	const n = 5
	const pairs = n * (n - 1) / 2
	d := newDeployment(t, n, 1, 424)
	if got := d.KeysDerived(); got != 0 {
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
	derivedBefore := d.KeysDerived()
	if waiting := d.KeyCacheLen(); derivedBefore != pairs || waiting != 0 {
		t.Fatalf("%d agreements, %d pairs waiting after a full-mesh instance, want %d and none", derivedBefore, waiting, pairs)
	}
	heldBefore := linksHeld(d)
	for i, held := range heldBefore {
		if held != n-1 {
			t.Fatalf("node %d holds %d links after a full-mesh instance, want %d", i, held, n-1)
		}
	}
	// Asked on node 0's side, and twice: the first call leaves the keys in
	// the cache and the second takes them out again.
	sessionKeys := func() xcrypto.SessionKeys {
		t.Helper()
		keys, err := d.Encls[0].SessionKeys(d.Roster.Quotes[3].DHPublic)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := d.Encls[0].SessionKeys(d.Roster.Quotes[3].DHPublic); err != nil || again != keys {
			t.Fatalf("the hand-over changed the keys (err %v)", err)
		}
		return keys
	}
	keysBefore := sessionKeys()
	quoteBefore := d.Roster.Quotes[3]

	// Reboot. Same deployment seed ⇒ same enclave rng stream ⇒ same DH
	// keypair ⇒ identical quote and identical session keys — no
	// renegotiation.
	if err := d.Restart(3); err != nil {
		t.Fatalf("restart: %v", err)
	}
	if d.Stopped(3) {
		t.Fatal("node 3 still marked stopped after restart")
	}
	if !reflect.DeepEqual(d.Roster.Quotes[3], quoteBefore) {
		t.Fatal("restarted node re-attested with a different quote")
	}
	if sessionKeys() != keysBefore {
		t.Fatal("the survivor derives different session keys with the restarted enclave")
	}
	derivedBefore += 2 // the two probes above

	// Epoch 2: the restarted node participates fully — its fresh links
	// must interoperate with the survivors' original cipher state in both
	// directions, and its copied sequence table must pass freshness.
	v2 := wire.Value{0xAF}
	engines, err = d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{3}}, v2, nil)
	if err != nil {
		t.Fatal(err)
	}
	acceptedBy(t, engines, 3, v2, 0, 1, 2, 3, 4)
	if derived, waiting := d.KeysDerived()-derivedBefore, d.KeyCacheLen(); derived != n-1 || waiting != n-1 {
		t.Fatalf("the reboot cost %d agreements and left %d pairs waiting, want %d and %d: its own ends, nothing of the survivors'", derived, waiting, n-1, n-1)
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
	if derived, links := d.KeysDerived(), d.LinksEstablished(); derived != 0 || links != 0 {
		t.Fatalf("%d pairs, %d link ends derived by a crash and a restart alone", derived, links)
	}
	v := wire.Value{0x5B}
	engines, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{3}}, v, nil)
	if err != nil {
		t.Fatal(err)
	}
	acceptedBy(t, engines, 3, v, 0, 1, 2, 3, 4)
	if derived, waiting, links := d.KeysDerived(), d.KeyCacheLen(), d.LinksEstablished(); derived != n*(n-1)/2 || waiting != 0 || links != n*(n-1) {
		t.Fatalf("%d agreements, %d pairs waiting, %d link ends after the first instance, want %d, none, %d", derived, waiting, links, n*(n-1)/2, n*(n-1))
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

// TestPrefetchDerivesEachPairOnce opens a full mesh with the parallel
// prefetch, a peer per worker: the two ends of a pair often ask at the same
// moment, and the key cache makes the later one wait for the earlier one's
// agreement rather than compute its own. Each peer reserves its missing
// pairs without waiting, derives what it reserved eight to a ladder, and
// only then waits for the pairs another peer was deriving — a peer that
// waited while holding reservations could deadlock a cycle of them. The
// mesh starts closed, or partly open: one sampled Algorithm 6 epoch has
// opened its pairs at both ends, and then perhaps a node that took part
// crashed and restarted, so its end of each pair it had opened is derived
// once more and left for an end that never asks. Every pair is agreed
// once either way, and only those re-derivations wait afterwards.
func TestPrefetchDerivesEachPairOnce(t *testing.T) {
	const victim = wire.NodeID(7) // the node the crash-restart case reboots
	cases := []struct {
		name    string
		n, t    int
		real    bool
		epoch   bool
		restart bool
	}{
		{name: "closed", n: 64, t: 31, real: true},
		// At N = 256 (the smallest a sampled epoch runs at) the model key
		// exchange keeps the race build's five repetitions affordable; its
		// pairs go through the same reservations.
		{name: "sampled-epoch", n: 256, t: 85, epoch: true},
		{name: "crash-restart", n: 256, t: 85, epoch: true, restart: true},
	}
	for _, c := range cases {
		pairs := c.n * (c.n - 1) / 2
		for _, procs := range []int{1, 2, 4} {
			setProcs(t, procs)
			for seed := int64(1); seed <= 3; seed++ {
				d, err := deploy.New(deploy.Options{N: c.n, T: c.t, Seed: seed, RealCrypto: c.real})
				if err != nil {
					t.Fatal(err)
				}
				if c.epoch {
					if _, err := d.Epoch(c.t, true, nil); err != nil {
						t.Fatal(err)
					}
					if waiting := d.KeyCacheLen(); waiting != 0 || d.LinksEstablished() == 0 || d.LinksEstablished() >= c.n*(c.n-1)/2 {
						t.Fatalf("%s procs=%d seed=%d: the epoch left %d link ends and %d pairs waiting, want a minority of the mesh open at both ends",
							c.name, procs, seed, d.LinksEstablished(), waiting)
					}
				}
				rederived := 0
				if c.restart {
					rederived = int(d.Peers[victim].Stats().LinksEstablished)
					if err := d.Stop(victim); err != nil {
						t.Fatal(err)
					}
					if err := d.Restart(victim); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.EstablishLinks(); err != nil {
					t.Fatal(err)
				}
				if derived, waiting, links := d.KeysDerived(), d.KeyCacheLen(), d.LinksEstablished(); derived != pairs+rederived || waiting != rederived || links != c.n*(c.n-1) {
					t.Errorf("%s procs=%d seed=%d: %d agreements, %d pairs waiting, %d link ends after the prefetch, want %d, %d, %d",
						c.name, procs, seed, derived, waiting, links, pairs+rederived, rederived, c.n*(c.n-1))
				}
			}
		}
	}
}
