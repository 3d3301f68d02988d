package deploy_test

import (
	"bytes"
	"math/rand"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// shareable reports whether this build hands a pair's cipher over whole.
func shareable(t *testing.T) bool {
	c, err := xcrypto.NewLinkCipher(xcrypto.SessionKeys{})
	if err != nil {
		t.Fatal(err)
	}
	return c.Shareable()
}

func realDeployment(t *testing.T, n, byz int, seed int64) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed, RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestFullMeshHoldsOneCipherPerPair: after a full-mesh instance of a
// real-crypto deployment at N = 64 its N(N−1) link ends hold N(N−1)/2
// ciphers, the two ends of each pair one object, where ciphers are
// Shareable; one per end otherwise.
func TestFullMeshHoldsOneCipherPerPair(t *testing.T) {
	const n = 64
	d := realDeployment(t, n, 21, 5)
	if _, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}, wire.Value{1}, nil); err != nil {
		t.Fatal(err)
	}
	ciphers := make(map[*xcrypto.LinkCipher]bool)
	for i, p := range d.Peers {
		for j := range d.Peers {
			if i == j {
				continue
			}
			c := deploy.LinkCipher(p, wire.NodeID(j))
			if c == nil {
				t.Fatalf("node %d has no link to %d after a full-mesh instance", i, j)
			}
			if shared := c == deploy.LinkCipher(d.Peers[j], wire.NodeID(i)); shared != shareable(t) {
				t.Fatalf("ends (%d, %d) share one cipher: %v; Shareable: %v", i, j, shared, shareable(t))
			}
			ciphers[c] = true
		}
	}
	want := n * (n - 1)
	if shareable(t) {
		want /= 2
	}
	if len(ciphers) != want {
		t.Fatalf("%d link ends hold %d ciphers, want %d", n*(n-1), len(ciphers), want)
	}
}

// TestRestartPreparesFreshCipher: a node relaunched by Restart re-derives
// the pairs its survivors hold and prepares a cipher of its own for each —
// another object than the survivor's, sealing the same bytes under the
// same nonce — while the survivors' ends stay as they were and the next
// instance runs across the old and the new.
func TestRestartPreparesFreshCipher(t *testing.T) {
	const n = 4
	d := realDeployment(t, n, 1, 9)
	cfg := erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}
	if _, err := d.Broadcast(cfg, wire.Value{1}, nil); err != nil {
		t.Fatal(err)
	}
	survivors := make([]*xcrypto.LinkCipher, n)
	for i := range n - 1 {
		survivors[i] = deploy.LinkCipher(d.Peers[i], 3)
	}
	if err := d.Stop(3); err != nil {
		t.Fatal(err)
	}
	if err := d.Restart(3); err != nil {
		t.Fatal(err)
	}
	engines, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{3}}, wire.Value{2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	acceptedBy(t, engines, 3, wire.Value{2}, 0, 1, 2, 3)
	plain := []byte("one pair, one key schedule")
	for i := range n - 1 {
		fresh := deploy.LinkCipher(d.Peers[3], wire.NodeID(i))
		if got := deploy.LinkCipher(d.Peers[i], 3); got != survivors[i] {
			t.Fatalf("survivor %d's end changed across the restart", i)
		}
		if fresh == nil || fresh == survivors[i] {
			t.Fatalf("the restarted node's end to %d holds the survivor's cipher", i)
		}
		a, err := fresh.SealAppend(nil, rand.New(rand.NewSource(1)), plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := survivors[i].SealAppend(nil, rand.New(rand.NewSource(1)), plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("the fresh cipher toward %d seals other bytes than the survivor's", i)
		}
	}
}
