package sgxp2p_test

import (
	"reflect"
	"testing"

	"sgxp2p"
)

func TestClusterBroadcast(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 7, T: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.N() != 7 || c.T() != 3 {
		t.Fatalf("N=%d T=%d", c.N(), c.T())
	}
	payload := sgxp2p.ValueFromString("block #42")
	results, err := c.Broadcast(2, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 7 {
		t.Fatalf("got %d results, want 7", len(results))
	}
	for id, res := range results {
		if !res.Accepted || res.Value != payload {
			t.Fatalf("node %d: %+v", id, res)
		}
	}
	if tr := c.Traffic(); tr.Messages == 0 || tr.Bytes == 0 {
		t.Fatal("no traffic recorded")
	}
}

func TestClusterSequentialBroadcasts(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		payload := sgxp2p.ValueFromString("msg")
		results, err := c.Broadcast(sgxp2p.NodeID(round), payload)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		for id, res := range results {
			if !res.Accepted {
				t.Fatalf("round %d node %d rejected", round, id)
			}
		}
	}
}

func TestClusterGenerateRandom(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := c.GenerateRandom()
	if err != nil {
		t.Fatal(err)
	}
	e2, err := c.GenerateRandom()
	if err != nil {
		t.Fatal(err)
	}
	if !e1.OK || !e2.OK {
		t.Fatalf("emissions not OK: %+v %+v", e1, e2)
	}
	if e1.Value == e2.Value {
		t.Fatal("two epochs emitted the same value")
	}
}

func TestClusterWithAdversary(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{
		N: 7, T: 3, Seed: 4,
		Adversary: map[sgxp2p.NodeID]sgxp2p.Behavior{
			0: sgxp2p.OmitAll(),
			1: sgxp2p.CorruptEverything(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	payload := sgxp2p.ValueFromString("despite attackers")
	results, err := c.Broadcast(3, payload)
	if err != nil {
		t.Fatal(err)
	}
	for id := sgxp2p.NodeID(2); id < 7; id++ {
		res, ok := results[id]
		if !ok || !res.Accepted || res.Value != payload {
			t.Fatalf("honest node %d: %+v ok=%v", id, res, ok)
		}
	}
	if !c.Halted(0) {
		t.Fatal("omit-all node not churned out")
	}
	if os := c.AdversaryState(1); os == nil || os.Stats().Corrupted == 0 {
		t.Fatal("adversary state not exposed")
	}
	if c.AdversaryState(5) != nil {
		t.Fatal("honest node has adversary state")
	}
}

func TestClusterBeaconAndApps(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewBeacon(sgxp2p.BeaconBasic)
	if err != nil {
		t.Fatal(err)
	}
	elector, err := sgxp2p.NewElector(b, 20, 4)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*sgxp2p.Partition
	for epoch := 0; epoch < 2; epoch++ {
		p, err := elector.Elect()
		if err != nil {
			t.Fatal(err)
		}
		total := 0
		for _, n := range p.Sizes() {
			if n != 5 {
				t.Fatalf("epoch %d: committee sizes %v, want 4 of 5", epoch, p.Sizes())
			}
			total += n
		}
		if total != 20 {
			t.Fatalf("epoch %d: partition covers %d of 20 nodes", epoch, total)
		}
		parts = append(parts, p)
	}
	if reflect.DeepEqual(parts[0].Committees, parts[1].Committees) {
		t.Fatal("two beacon epochs formed the same committees")
	}
	// An auditor re-derives each partition from the beacon history.
	for i, e := range b.History() {
		if got := sgxp2p.FormCommittees(e.Value[:], 20, 4); !reflect.DeepEqual(got.Committees, parts[i].Committees) {
			t.Fatalf("epoch %d: audit derived %v, elector formed %v", i, got.Committees, parts[i].Committees)
		}
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := sgxp2p.NewCluster(sgxp2p.Options{N: 1, T: 0}); err == nil {
		t.Error("N=1 accepted")
	}
	if _, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 3}); err == nil {
		t.Error("T beyond bound accepted")
	}
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 3, T: 1, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Broadcast(9, sgxp2p.Value{}); err == nil {
		t.Error("out-of-range initiator accepted")
	}
}

func TestClusterRealCrypto(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 3, T: 1, Seed: 7, RealCrypto: true})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.Broadcast(0, sgxp2p.ValueFromString("aes for real"))
	if err != nil {
		t.Fatal(err)
	}
	for id, res := range results {
		if !res.Accepted {
			t.Fatalf("node %d rejected under real crypto", id)
		}
	}
}

func TestClusterJoin(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 2, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	newID, err := c.Join(sgxp2p.JoinOptions{Sponsor: 1})
	if err != nil {
		t.Fatal(err)
	}
	if newID != 5 || c.N() != 6 {
		t.Fatalf("newID=%d N=%d", newID, c.N())
	}
	// The newcomer can broadcast to everyone.
	payload := sgxp2p.ValueFromString("fresh node")
	results, err := c.Broadcast(newID, payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 6 {
		t.Fatalf("results = %d, want 6", len(results))
	}
	for id, res := range results {
		if !res.Accepted || res.Value != payload {
			t.Fatalf("node %d: %+v", id, res)
		}
	}
}

func TestClusterBroadcastMany(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 7, T: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]sgxp2p.BroadcastRequest, 20)
	for j := range reqs {
		reqs[j] = sgxp2p.BroadcastRequest{
			Initiator: sgxp2p.NodeID(j % 7),
			Value:     sgxp2p.ValueFromString("mux payload"),
		}
	}
	results, err := c.BroadcastMany(reqs, sgxp2p.MuxOptions{MaxInFlight: 8})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(reqs) {
		t.Fatalf("got %d result sets, want %d", len(results), len(reqs))
	}
	for j, res := range results {
		if len(res) != 7 {
			t.Fatalf("request %d decided at %d nodes, want 7", j, len(res))
		}
		for id, r := range res {
			if !r.Accepted || r.Value != reqs[j].Value {
				t.Fatalf("request %d node %d: %+v", j, id, r)
			}
		}
	}
	// The cluster stays usable for ordinary epochs afterwards.
	after, err := c.Broadcast(0, sgxp2p.ValueFromString("after"))
	if err != nil {
		t.Fatal(err)
	}
	for id, r := range after {
		if !r.Accepted {
			t.Fatalf("post-mux broadcast rejected at node %d", id)
		}
	}
}

// TestClusterGenerateRandomMany drives concurrent basic-ERNG epochs
// through the multiplexed runtime end-to-end via the public API: every
// epoch must reach an identical, OK decision with all N contributors at
// every node, distinct epochs must emit distinct values (each instance
// draws its contributions at its own admission round), and the cluster
// must stay usable for ordinary single-epoch runs afterwards.
func TestClusterGenerateRandomMany(t *testing.T) {
	const n, epochs = 5, 12
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: n, T: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	results, err := c.GenerateRandomMany(epochs, sgxp2p.MuxOptions{MaxInFlight: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != epochs {
		t.Fatalf("got %d epochs, want %d", len(results), epochs)
	}
	seen := make(map[sgxp2p.Value]int, epochs)
	for j, res := range results {
		if len(res) != n {
			t.Fatalf("epoch %d decided at %d nodes, want %d", j, len(res), n)
		}
		first := res[0]
		if !first.OK || len(first.Contributors) != n {
			t.Fatalf("epoch %d node 0: %+v", j, first)
		}
		for id, r := range res {
			if !r.OK || r.Value != first.Value || len(r.Contributors) != n {
				t.Fatalf("epoch %d node %d diverged: %+v vs %+v", j, id, r, first)
			}
		}
		if prev, dup := seen[first.Value]; dup {
			t.Fatalf("epochs %d and %d emitted the same value", prev, j)
		}
		seen[first.Value] = j
	}
	// The cluster stays usable for ordinary epochs afterwards.
	after, err := c.GenerateRandom()
	if err != nil {
		t.Fatal(err)
	}
	if !after.OK {
		t.Fatalf("post-mux epoch not OK: %+v", after)
	}
	if _, dup := seen[after.Value]; dup {
		t.Fatal("post-mux epoch repeated a multiplexed value")
	}
}

func TestClusterBroadcastManyValidation(t *testing.T) {
	c, err := sgxp2p.NewCluster(sgxp2p.Options{N: 5, T: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := c.BroadcastMany(nil, sgxp2p.MuxOptions{}); err != nil || out != nil {
		t.Fatalf("empty request list: out=%v err=%v", out, err)
	}
	if _, err := c.BroadcastMany([]sgxp2p.BroadcastRequest{{Initiator: 9}}, sgxp2p.MuxOptions{}); err == nil {
		t.Fatal("out-of-range initiator accepted")
	}
	reqs := []sgxp2p.BroadcastRequest{{Initiator: 0}, {Initiator: 1}}
	if _, err := c.BroadcastMany(reqs, sgxp2p.MuxOptions{MaxBacklog: 1}); err == nil {
		t.Fatal("backlog overflow accepted")
	}
}
