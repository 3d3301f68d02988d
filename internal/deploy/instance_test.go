package deploy_test

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/keyed"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/scenario"
	"sgxp2p/internal/wire"
)

// tickLog is a protocol that only records what the runtime drove it
// through.
type tickLog struct {
	rounds   []uint32
	finishes int
}

func (l *tickLog) OnRound(rnd uint32)      { l.rounds = append(l.rounds, rnd) }
func (l *tickLog) OnMessage(*wire.Message) {}
func (l *tickLog) OnFinish()               { l.finishes++ }

// counters snapshots what P6 advances: every peer's instance counter and
// its whole sequence table.
func counters(d *deploy.Deployment) (instances []uint32, seqs [][]uint64) {
	for _, p := range d.Peers {
		instances = append(instances, p.Instance())
		row := make([]uint64, p.N())
		for j := range row {
			row[j] = p.SeqOf(wire.NodeID(j))
		}
		seqs = append(seqs, row)
	}
	return instances, seqs
}

// TestRunInstanceHaltedPeerSitsOut: a churned-out peer (P4) gets no
// protocol, so there is nothing to start on it; every live peer is built
// in id order and driven through all its rounds.
func TestRunInstanceHaltedPeerSitsOut(t *testing.T) {
	d := newDeployment(t, 5, 2, 71)
	d.Peers[3].HaltSelf()
	var built []wire.NodeID
	logs := make([]*tickLog, len(d.Peers))
	err := d.RunInstance(func(p *runtime.Peer) (runtime.Protocol, int, error) {
		built = append(built, p.ID())
		logs[p.ID()] = &tickLog{}
		return logs[p.ID()], 3, nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if want := []wire.NodeID{0, 1, 2, 4}; !reflect.DeepEqual(built, want) {
		t.Fatalf("built %v, want %v", built, want)
	}
	for _, id := range built {
		if l := logs[id]; !reflect.DeepEqual(l.rounds, []uint32{1, 2, 3}) || l.finishes != 1 {
			t.Fatalf("node %d ticked %v and finished %d times, want rounds 1..3 and one finish", id, l.rounds, l.finishes)
		}
	}
}

// TestRunInstanceBuildErrorStartsNobody: S2 is all or nothing — when peer
// 2's build fails, peers 0 and 1, already built, have not been started,
// the simulator has nothing to fire, and no counter moved.
func TestRunInstanceBuildErrorStartsNobody(t *testing.T) {
	d := newDeployment(t, 4, 1, 72)
	boom := errors.New("boom")
	instances, seqs := counters(d)
	logs := make([]*tickLog, len(d.Peers))
	err := d.RunInstance(func(p *runtime.Peer) (runtime.Protocol, int, error) {
		if p.ID() == 2 {
			return nil, 0, boom
		}
		logs[p.ID()] = &tickLog{}
		return logs[p.ID()], 3, nil
	}, nil)
	if !errors.Is(err, boom) {
		t.Fatalf("RunInstance: %v, want the build error", err)
	}
	fired := d.Sim.FiredCount()
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	if got := d.Sim.FiredCount(); got != fired {
		t.Fatalf("%d events fired after a failed build, want 0", got-fired)
	}
	for id, l := range logs {
		if l != nil && (len(l.rounds) != 0 || l.finishes != 0) {
			t.Fatalf("node %d was driven (%v) although node 2 failed to build", id, l.rounds)
		}
	}
	if gotI, gotS := counters(d); !reflect.DeepEqual(gotI, instances) || !reflect.DeepEqual(gotS, seqs) {
		t.Fatal("a failed build moved sequence numbers or instance counters")
	}
}

// TestRunInstanceAdvancesCountersOnce: P6 — every instance advances every
// peer's instance counter and every entry of its sequence table by exactly
// one, on a churned-out peer too.
func TestRunInstanceAdvancesCountersOnce(t *testing.T) {
	d := newDeployment(t, 5, 2, 73)
	d.Peers[4].HaltSelf()
	instances, seqs := counters(d)
	for k := 1; k <= 3; k++ {
		initiator := wire.NodeID(k % 4)
		engines, err := d.Broadcast(erb.Config{T: 2, ExpectedInitiators: []wire.NodeID{initiator}}, wire.Value{byte(k)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if engines[4] != nil {
			t.Fatal("halted node 4 was given an engine")
		}
		for i, eng := range engines[:4] {
			if res, ok := eng.Result(initiator); !ok || !res.Accepted || res.Value != (wire.Value{byte(k)}) {
				t.Fatalf("instance %d, node %d: ok=%v res=%+v", k, i, ok, res)
			}
		}
		gotI, gotS := counters(d)
		for i := range d.Peers {
			if gotI[i] != instances[i]+uint32(k) {
				t.Fatalf("after %d instances node %d counts instance %d, want %d", k, i, gotI[i], instances[i]+uint32(k))
			}
			for j := range gotS[i] {
				if gotS[i][j] != seqs[i][j]+uint64(k) {
					t.Fatalf("after %d instances node %d holds seq %d of node %d, want %d", k, i, gotS[i][j], j, seqs[i][j]+uint64(k))
				}
			}
		}
	}
}

// TestCloseInstanceResumesFreshPeer: a relaunched live node closes the k
// epochs it missed, and from a fresh peer's directory state that leaves
// every sequence number at the directory's + k and the instance counter
// at k — where a peer that ran the k instances is.
func TestCloseInstanceResumesFreshPeer(t *testing.T) {
	d := newDeployment(t, 4, 1, 74)
	instances, seqs := counters(d)
	const k = 3
	for _, p := range d.Peers {
		for range k {
			deploy.CloseInstance(p, nil)
		}
	}
	gotI, gotS := counters(d)
	for i := range d.Peers {
		if instances[i] != 0 || gotI[i] != k {
			t.Fatalf("node %d counts instance %d after %d closes from %d, want %d from 0", i, gotI[i], k, instances[i], k)
		}
		for j := range gotS[i] {
			if gotS[i][j] != seqs[i][j]+k {
				t.Fatalf("node %d holds seq %d of node %d after %d closes, want the directory's %d + %d", i, gotS[i][j], j, k, seqs[i][j], k)
			}
		}
	}
}

// TestCatalogueRoundsMatchBuiltProtocols: each kind of the instance
// catalogue states its round count without a peer — what a live fleet's
// epoch slot (scenario.EpochRounds: the kind's rounds + 2, t+4 for erb
// and erng) is computed from — and it is the round count of the protocol
// the kind builds.
func TestCatalogueRoundsMatchBuiltProtocols(t *testing.T) {
	for _, size := range []struct{ n, t int }{{4, 1}, {16, 5}, {64, 21}} {
		d := newDeployment(t, size.n, size.t, 75)
		for _, mode := range []string{"erb", "erng", "erng-opt"} {
			k, err := deploy.LookupKind(mode)
			if err != nil {
				t.Fatal(err)
			}
			want, err := k.Rounds(size.n, size.t)
			if err != nil {
				t.Fatalf("%s at (%d,%d): %v", mode, size.n, size.t, err)
			}
			proto, err := k.New(d.Peers[1], size.t, wire.Value{})
			if err != nil {
				t.Fatalf("%s at (%d,%d): %v", mode, size.n, size.t, err)
			}
			if got := proto.Rounds(); got != want {
				t.Errorf("%s at (%d,%d): catalogue says %d rounds, the built protocol runs %d", mode, size.n, size.t, want, got)
			}
			slot, err := scenario.EpochRounds(mode, size.n, size.t)
			if err != nil || slot != want+2 || mode != "erng-opt" && slot != size.t+4 {
				t.Errorf("%s at (%d,%d): epoch slot %d rounds (%v), want %d", mode, size.n, size.t, slot, err, want+2)
			}
		}
	}
	if _, err := deploy.LookupKind("mux"); err == nil || !strings.Contains(err.Error(), "erb, erng, erng-opt") {
		t.Fatalf("LookupKind(mux) = %v, want the catalogue's names", err)
	}
}

// TestRunInstanceMuxEndsPastConsumedIDs: a multiplexed run consumes one
// instance id per spawn; when it closes, every peer that ran a mux counts
// past all of them, and an ordinary instance still decides afterwards.
func TestRunInstanceMuxEndsPastConsumedIDs(t *testing.T) {
	const k = 5
	d := newDeployment(t, 4, 1, 74)
	broadcast(t, d, 0, wire.Value{1}) // so the mux does not start from instance 0
	var last uint32
	err := d.RunInstance(func(p *runtime.Peer) (runtime.Protocol, int, error) {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: 2})
		for j := 0; j < k; j++ {
			it, err := m.Spawn(3, func(*runtime.Instance) (runtime.Protocol, error) { return &tickLog{}, nil })
			if err != nil {
				return nil, 0, err
			}
			last = it.Instance()
		}
		return m, m.PlannedRounds(), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Peers {
		if p.Instance() != last+2 {
			t.Fatalf("node %d counts instance %d after a mux run that consumed ids up to %d, want %d", i, p.Instance(), last, last+2)
		}
	}
	v := wire.Value{0x74}
	for id, res := range broadcast(t, d, 1, v) {
		if !res.Accepted || res.Value != v {
			t.Fatalf("node %d after the mux run: %+v", id, res)
		}
	}
}

// TestLinksOpenedOnDemand counts the channels an instance opens. A sampled
// Algorithm 6 epoch is the one instance RunInstance does not open the
// mesh for: a cluster member multicasts to everyone and ends with N-1
// links, everyone else answers the members and ends with |cluster|. A
// broadcast opens the rest, and after it there is nothing left to open.
// Agreements computed are counted by KeysDerived; the key cache holds a
// pair only between its two ends' openings, so it is empty whenever both
// ends of every used pair are open.
func TestLinksOpenedOnDemand(t *testing.T) {
	const n = 256
	d := newDeployment(t, n, 85, 61)
	if links, derived := d.LinksEstablished(), d.KeysDerived(); links != 0 || derived != 0 {
		t.Fatalf("%d link ends, %d agreements after New, want none", links, derived)
	}

	protos, err := d.Epoch(d.Opts.T, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	member := make([]bool, n)
	cluster := 0
	for i, proto := range protos {
		o := proto.(*erng.Optimized)
		if o.Params().Mode != erng.ModeSampled {
			t.Fatalf("N=%d resolved to mode %v, want the sampled construction", n, o.Params().Mode)
		}
		if member[i] = o.Chosen(); member[i] {
			cluster++
		}
	}
	if cluster < 2 || cluster > n/4 {
		t.Fatalf("cluster of %d at N=%d", cluster, n)
	}
	for i, p := range d.Peers {
		// A member's CHOSEN, its first frame, opens its N−1 links as one
		// batch; a non-member opens each link at a member's first frame.
		want, batches := uint64(cluster), uint64(0)
		if member[i] {
			want, batches = n-1, 1
		}
		if got := p.Stats().LinksEstablished; got != want {
			t.Errorf("node %d (member: %v) holds %d links after a sampled epoch, want %d", i, member[i], got, want)
		}
		if got := p.Stats().LinkBatches; got != batches {
			t.Errorf("node %d (member: %v) opened its links in %d batches, want %d", i, member[i], got, batches)
		}
	}
	if got := d.KeysDerived(); got == 0 || got >= n*(n-1)/4 {
		t.Fatalf("%d pairs derived by one sampled epoch of cluster %d, want fewer than half of %d", got, cluster, n*(n-1)/2)
	}
	// Every frame of the epoch was answered, so each used pair is open at
	// both ends and none is waiting: one agreement per two link ends, even
	// for the pairs whose ends fired side by side in one window.
	sampled := d.LinksEstablished() / 2
	if derived, waiting := d.KeysDerived(), d.KeyCacheLen(); derived != sampled || waiting != 0 {
		t.Fatalf("%d agreements for %d pairs, %d pairs waiting; want one per pair and none waiting", derived, sampled, waiting)
	}

	if _, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{0}}, wire.Value{1}, nil); err != nil {
		t.Fatal(err)
	}
	for i, p := range d.Peers {
		if got := p.Stats().LinksEstablished; got != n-1 {
			t.Errorf("node %d holds %d links after a broadcast, want %d", i, got, n-1)
		}
	}
	// The prefetch's schedule agrees each pair the epoch left closed once
	// for both ends.
	const pairs = n * (n - 1) / 2
	links, derived := d.LinksEstablished(), d.KeysDerived()
	if links != n*(n-1) || derived != pairs || d.KeyCacheLen() != 0 {
		t.Fatalf("%d link ends, %d agreements, %d pairs waiting after a broadcast, want %d, %d, none",
			links, derived, d.KeyCacheLen(), n*(n-1), pairs)
	}
	if err := d.EstablishLinks(); err != nil {
		t.Fatal(err)
	}
	if l, c := d.LinksEstablished(), d.KeysDerived(); l != links || c != derived {
		t.Fatalf("a second EstablishLinks derived: %d -> %d link ends, %d -> %d agreements", links, l, derived, c)
	}
}

// TestJoinPostState pins where a join leaves the network: every member and
// the joiner itself expect the joiner at its drawn sequence number plus
// one (the join is an instance like any other, and closing it bumped the
// joiner with everyone), the joiner counts the sponsor's instance, every
// old entry advanced once, and the next broadcast decides on all n+1 nodes.
func TestJoinPostState(t *testing.T) {
	const seed = 67
	d := newDeployment(t, 5, 2, seed)
	instances, seqs := counters(d)
	newID, err := d.Join(deploy.JoinOptions{Sponsor: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The joiner's enclave is a function of the seed and its id (Restart
	// relies on the same): replay it for the number it drew.
	rng := keyed.Stream(seed, keyed.Enclave, uint64(newID))
	encl, err := enclave.Launch(deploy.DefaultProgram, newID, rng, d.Net.Port(newID), enclave.WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	seq, err := encl.RandomSeq()
	if err != nil {
		t.Fatal(err)
	}
	gotI, gotS := counters(d)
	for i := range d.Peers {
		if gotS[i][newID] != seq+1 {
			t.Fatalf("node %d expects the joiner at seq %d, want its drawn %d + 1", i, gotS[i][newID], seq)
		}
		if gotI[i] != instances[1]+1 {
			t.Fatalf("node %d counts instance %d, the sponsor started the join at %d", i, gotI[i], instances[1])
		}
		for j := range seqs[1] {
			if gotS[i][j] != seqs[1][j]+1 {
				t.Fatalf("node %d holds seq %d of node %d, want %d", i, gotS[i][j], j, seqs[1][j]+1)
			}
		}
	}
	v := wire.Value{0x67}
	results := broadcast(t, d, newID, v)
	if len(results) != 6 {
		t.Fatalf("%d nodes decided the broadcast after the join, want 6", len(results))
	}
	for id, res := range results {
		if !res.Accepted || res.Value != v {
			t.Fatalf("node %d after the join: %+v", id, res)
		}
	}
}

// TestInstanceLifecycleHasOneOwner keeps P6 in one place: outside the
// driver's package, the runtime that implements the two calls and the
// frozen benchmark mirror, no shipped file may bump sequence numbers or
// re-align an instance counter by hand — a live node closes its epochs
// with deploy.CloseInstance — and no command builds a protocol but
// through the instance catalogue.
func TestInstanceLifecycleHasOneOwner(t *testing.T) {
	owners := []string{"internal/deploy/", "internal/runtime/", "bench/"}
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel := filepath.ToSlash(strings.TrimPrefix(path, root+string(filepath.Separator)))
		if e.IsDir() {
			if rel == "internal/lint/testdata" || strings.HasPrefix(e.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		for _, owner := range owners {
			if strings.HasPrefix(rel, owner) {
				return nil
			}
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, call := range []string{".BumpSeqs(", ".AlignInstance("} {
			if strings.Contains(string(src), call) {
				t.Errorf("%s calls %s: closing an instance belongs to deploy.RunInstance", rel, call)
			}
		}
		for _, call := range []string{"erb.NewEngine(", "erng.NewBasic(", "erng.NewOptimized("} {
			if strings.HasPrefix(rel, "cmd/") && strings.Contains(string(src), call) {
				t.Errorf("%s calls %s: a command builds its protocols through deploy.LookupKind", rel, call)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
