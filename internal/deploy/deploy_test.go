package deploy_test

import (
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/overlay"
	"sgxp2p/internal/wire"
)

func newDeployment(t *testing.T, n, byz int, seed int64) *deploy.Deployment {
	t.Helper()
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// broadcast runs one ERB instance across all live peers and returns the
// honest results by node id.
func broadcast(t *testing.T, d *deploy.Deployment, initiator wire.NodeID, v wire.Value) map[wire.NodeID]erb.Result {
	t.Helper()
	engines := make([]*erb.Engine, len(d.Peers))
	for i, p := range d.Peers {
		if p.Halted() {
			continue
		}
		eng, err := erb.NewEngine(p, erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{initiator}})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	if engines[initiator] != nil {
		engines[initiator].SetInput(v)
	}
	for i, p := range d.Peers {
		if engines[i] != nil {
			p.Start(engines[i], engines[i].Rounds())
		}
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make(map[wire.NodeID]erb.Result)
	for i, eng := range engines {
		if eng == nil {
			continue
		}
		if res, ok := eng.Result(initiator); ok {
			out[wire.NodeID(i)] = res
		}
	}
	for i, p := range d.Peers {
		if engines[i] != nil {
			p.BumpSeqs()
		}
	}
	return out
}

func TestJoinExtendsMembership(t *testing.T) {
	d := newDeployment(t, 5, 2, 61)
	newID, err := d.Join(deploy.JoinOptions{Sponsor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if newID != 5 {
		t.Fatalf("new id = %d, want 5", newID)
	}
	if len(d.Peers) != 6 || d.Peers[5].N() != 6 {
		t.Fatalf("membership not extended: %d peers, N=%d", len(d.Peers), d.Peers[5].N())
	}
	for i, p := range d.Peers {
		if p.N() != 6 {
			t.Fatalf("peer %d sees N=%d, want 6", i, p.N())
		}
	}
	// The joined node participates in the next broadcast, both ways.
	v := wire.Value{0x61}
	results := broadcast(t, d, 5, v)
	if len(results) != 6 {
		t.Fatalf("got %d results, want 6", len(results))
	}
	for id, res := range results {
		if !res.Accepted || res.Value != v {
			t.Fatalf("node %d after join: %+v", id, res)
		}
	}
}

func TestJoinSeveralNodes(t *testing.T) {
	d := newDeployment(t, 4, 1, 62)
	for k := 0; k < 3; k++ {
		if _, err := d.Join(deploy.JoinOptions{Sponsor: wire.NodeID(k % 4)}); err != nil {
			t.Fatalf("join %d: %v", k, err)
		}
	}
	if len(d.Peers) != 7 {
		t.Fatalf("peers = %d, want 7", len(d.Peers))
	}
	v := wire.Value{0x62}
	results := broadcast(t, d, 6, v)
	for id, res := range results {
		if !res.Accepted || res.Value != v {
			t.Fatalf("node %d: %+v", id, res)
		}
	}
}

// ringNeighbors is a ring-with-chords overlay: every node links to its
// ring successor and predecessor and to the nodes five away.
func ringNeighbors(id wire.NodeID, n int) []wire.NodeID {
	i := int(id)
	return []wire.NodeID{
		wire.NodeID((i + 1) % n),
		wire.NodeID((i - 1 + n) % n),
		wire.NodeID((i + 5) % n),
		wire.NodeID((i - 5 + n) % n),
	}
}

// overlayOptions deploys n nodes over ringNeighbors with 50 ms links and a
// round bound of one link per hop of the overlay's diameter, plus one.
func overlayOptions(t *testing.T, n, byz int, seed int64) deploy.Options {
	t.Helper()
	diam := overlay.Diameter(ringNeighbors, n)
	if diam <= 0 {
		t.Fatalf("ring+chords overlay of %d nodes is disconnected", n)
	}
	const link = 50 * time.Millisecond
	return deploy.Options{N: n, T: byz, Seed: seed,
		Delta: time.Duration(diam+1) * link, LinkDelta: link, Neighbors: ringNeighbors}
}

// TestJoinRefusedOverSparseOverlay: every router takes its adjacency at
// New, so a joiner over an overlay would be linked to nobody — its first
// broadcast would end with every old node deciding bottom and the honest
// joiner halting itself. Join refuses before launching anything, and the
// deployment stays as it was.
func TestJoinRefusedOverSparseOverlay(t *testing.T) {
	d, err := deploy.New(overlayOptions(t, 16, 7, 71))
	if err != nil {
		t.Fatal(err)
	}
	if id, err := d.Join(deploy.JoinOptions{Sponsor: 0}); err != deploy.ErrJoinOverlay {
		t.Fatalf("join over an overlay: id %d, err %v; want ErrJoinOverlay", id, err)
	}
	if len(d.Peers) != 16 || len(d.Encls) != 16 || d.Opts.N != 16 {
		t.Fatalf("refused join left %d peers, %d enclaves, N=%d", len(d.Peers), len(d.Encls), d.Opts.N)
	}
	v := wire.Value{0x71}
	results := broadcast(t, d, 15, v)
	if len(results) != 16 {
		t.Fatalf("%d nodes decided after a refused join, want 16", len(results))
	}
	for id, res := range results {
		if !res.Accepted || res.Value != v {
			t.Fatalf("node %d after a refused join: %+v", id, res)
		}
	}
}

func TestJoinRejectedWhenSponsorOmits(t *testing.T) {
	// A byzantine sponsor whose OS drops everything cannot admit anyone:
	// the ERB announcement decides bottom everywhere.
	d, err := deploy.New(deploy.Options{N: 5, T: 2, Seed: 64})
	if err != nil {
		t.Fatal(err)
	}
	d.OS(0).Set(adversary.OmitAll())
	if _, err := d.Join(deploy.JoinOptions{Sponsor: 0}); err != deploy.ErrJoinRejected {
		t.Fatalf("join via omitting sponsor: %v, want ErrJoinRejected", err)
	}
	// The network remains consistent and usable.
	for i := 1; i < 5; i++ {
		if d.Peers[i].N() != 5 {
			t.Fatalf("peer %d sees N=%d after failed join", i, d.Peers[i].N())
		}
	}
}

func TestJoinValidation(t *testing.T) {
	d := newDeployment(t, 4, 1, 65)
	if _, err := d.Join(deploy.JoinOptions{Sponsor: 99}); err == nil {
		t.Error("out-of-range sponsor accepted")
	}
	d.Peers[2].HaltSelf()
	if _, err := d.Join(deploy.JoinOptions{Sponsor: 2}); err == nil {
		t.Error("halted sponsor accepted")
	}
}

func TestJoinSeqConsistency(t *testing.T) {
	d := newDeployment(t, 4, 1, 66)
	// Run a couple of epochs first so the seq tables have history.
	broadcast(t, d, 0, wire.Value{1})
	broadcast(t, d, 1, wire.Value{2})
	newID, err := d.Join(deploy.JoinOptions{Sponsor: 3})
	if err != nil {
		t.Fatal(err)
	}
	for id := wire.NodeID(0); int(id) < len(d.Peers); id++ {
		want := d.Peers[0].SeqOf(id)
		if got := d.Peers[newID].SeqOf(id); got != want {
			t.Fatalf("joiner seq of %d = %d, want %d", id, got, want)
		}
	}
	if d.Peers[newID].Instance() != d.Peers[0].Instance() {
		t.Fatalf("joiner instance %d, network %d", d.Peers[newID].Instance(), d.Peers[0].Instance())
	}
}
