package tcpnet_test

import (
	mrand "math/rand"
	"testing"
	"time"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/tcpnet"
	"sgxp2p/internal/wire"
)

// TestReconnectAfterPeerRestart pins the reconnect contract: when a peer
// process dies and a new one comes up on the same address, a sender's
// cached connection breaks once, the broken record is dropped, and the
// next Send after the redial backoff dials the fresh listener. Frames
// lost in between are omissions — exactly what the lockstep protocols
// already tolerate.
func TestReconnectAfterPeerRestart(t *testing.T) {
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := b.Addr()
	a.Connect(map[wire.NodeID]string{1: addr})

	got := make(chan string, 16)
	handler := func(src wire.NodeID, payload []byte) {
		if src == 0 {
			got <- string(payload)
		}
	}
	b.SetHandler(handler)
	a.Send(1, []byte("before restart"))
	select {
	case s := <-got:
		if s != "before restart" {
			t.Fatalf("payload %q", s)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("timeout before restart")
	}

	// The peer "crashes": its listener and connections go away.
	b.Close()

	// Sends into the void are dropped as omissions; they must not block
	// and must not wedge the sender's connection table.
	for i := 0; i < 3; i++ {
		a.Send(1, []byte("lost"))
		time.Sleep(50 * time.Millisecond)
	}

	// The peer "restarts" on the same address.
	b2, err := tcpnet.Listen(1, addr)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	b2.SetHandler(handler)

	// Keep sending: once the redial backoff lapses, a fresh dial reaches
	// the new listener and delivery resumes.
	deadline := time.After(10 * time.Second)
	for {
		a.Send(1, []byte("after restart"))
		select {
		case s := <-got:
			if s == "after restart" {
				return
			}
		case <-deadline:
			t.Fatal("delivery never resumed after peer restart")
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// TestSendNeverBlocksOnDeadPeer pins that Send to an unreachable peer
// returns promptly — the dial is asynchronous and failures enter a
// bounded backoff — so one dead peer cannot stall a node's event loop
// and make it miss lockstep rounds (the hang the scenario runner's
// preflight guards against).
func TestSendNeverBlocksOnDeadPeer(t *testing.T) {
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// A dead destination: nobody listens here (port from a closed listener).
	dead, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.Addr()
	dead.Close()
	a.Connect(map[wire.NodeID]string{1: deadAddr})

	start := time.Now()
	for i := 0; i < 100; i++ {
		a.Send(1, []byte("omission"))
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("100 sends to a dead peer took %v; Send must not block on dialing", elapsed)
	}
}

// TestSendDelayShapesLink pins the slow-link shaping hook: a configured
// per-destination delay defers frames toward that peer without touching
// other links.
func TestSendDelayShapesLink(t *testing.T) {
	a, err := tcpnet.Listen(0, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := tcpnet.Listen(1, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	c, err := tcpnet.Listen(2, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a.Connect(map[wire.NodeID]string{1: b.Addr(), 2: c.Addr()})

	const shaped = 300 * time.Millisecond
	a.SetSendDelay(1, shaped)

	slow := make(chan time.Time, 1)
	fast := make(chan time.Time, 1)
	b.SetHandler(func(src wire.NodeID, payload []byte) { slow <- time.Now() })
	c.SetHandler(func(src wire.NodeID, payload []byte) { fast <- time.Now() })

	start := time.Now()
	a.Send(1, []byte("shaped"))
	a.Send(2, []byte("unshaped"))

	select {
	case at := <-fast:
		if d := at.Sub(start); d > shaped {
			t.Fatalf("unshaped link took %v, shaping leaked across destinations", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("unshaped frame never arrived")
	}
	select {
	case at := <-slow:
		if d := at.Sub(start); d < shaped {
			t.Fatalf("shaped link delivered after %v, want >= %v", d, shaped)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("shaped frame never arrived")
	}
}

// restartableNode bundles everything one live node needs so the test can
// crash and relaunch it with identical deterministic key material.
type restartableNode struct {
	port  *tcpnet.Port
	encl  *enclave.Enclave
	peer  *runtime.Peer
	probe *finishProbe
}

// launchNode builds node id's full stack on addr. The enclave draws all
// randomness from a seed derived exactly like cmd/p2pnode's demo key
// exchange, so a relaunch re-derives the identical X25519 keypair and
// hence identical pairwise session keys (PR 3's restart lifecycle, here
// over real TCP).
func launchNode(t *testing.T, id wire.NodeID, addr string, n, byz int, delta time.Duration,
	seed int64, program []byte, roster runtime.Roster, seqs []uint64) *restartableNode {
	t.Helper()
	port, err := tcpnet.Listen(id, addr)
	if err != nil {
		t.Fatal(err)
	}
	rng := mrand.New(mrand.NewSource(seed ^ int64(id+1)*0x9E3779B9))
	encl, err := enclave.Launch(program, id, rng, enclave.NewWallClock())
	if err != nil {
		port.Close()
		t.Fatal(err)
	}
	peer, err := runtime.NewPeer(encl, port, roster, runtime.Config{N: n, T: byz, Delta: delta})
	if err != nil {
		port.Close()
		t.Fatal(err)
	}
	if err := peer.InstallSeqs(seqs); err != nil {
		port.Close()
		t.Fatal(err)
	}
	return &restartableNode{port: port, encl: encl, peer: peer}
}

// TestERBEpochAfterRestartOverTCP is the end-to-end reconnect test: five
// enclaved peers over real TCP run one ERB epoch, node 4 crashes (its
// process state, port and connections vanish), and a relaunched node 4 —
// same deterministic identity, same address, re-derived session keys —
// joins epoch 2. Epoch 2 must terminate with every node, including the
// restarted one, accepting the initiator's value: the survivors' cached
// connections to the old incarnation broke and were re-dialed, and the
// restarted enclave's re-derived keys opened the survivors' sealed
// frames without any channel re-establishment.
func TestERBEpochAfterRestartOverTCP(t *testing.T) {
	const n, byz = 5, 2
	const delta = 200 * time.Millisecond
	const seed = int64(99)
	program := []byte("erb-restart-over-tcp-v1")

	// Deterministic roster: every enclave's quote derives from the seed,
	// exactly like cmd/p2pnode's shared-secret demo attestation.
	service, err := enclave.NewAttestationService(mrand.New(mrand.NewSource(seed)))
	if err != nil {
		t.Fatal(err)
	}
	roster := runtime.Roster{
		Quotes:      make([]enclave.Quote, n),
		ServiceKey:  service.VerifyKey(),
		Measurement: measurement(program),
	}
	initialSeqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		rng := mrand.New(mrand.NewSource(seed ^ int64(i+1)*0x9E3779B9))
		e, lerr := enclave.Launch(program, wire.NodeID(i), rng, enclave.NewWallClock())
		if lerr != nil {
			t.Fatal(lerr)
		}
		roster.Quotes[i] = service.Attest(e)
		s, serr := e.RandomSeq()
		if serr != nil {
			t.Fatal(serr)
		}
		initialSeqs[i] = s
	}

	nodes := make([]*restartableNode, n)
	addrs := make(map[wire.NodeID]string, n)
	for i := 0; i < n; i++ {
		nodes[i] = launchNode(t, wire.NodeID(i), "127.0.0.1:0", n, byz, delta, seed, program, roster, initialSeqs)
		addrs[wire.NodeID(i)] = nodes[i].port.Addr()
	}
	defer func() {
		for _, nd := range nodes {
			nd.port.Close()
		}
	}()
	for _, nd := range nodes {
		nd.port.Connect(addrs)
	}

	runEpoch := func(epoch int, participants []*restartableNode, value wire.Value) {
		t.Helper()
		for i, nd := range participants {
			if nd == nil {
				continue
			}
			eng, eerr := erb.NewEngine(nd.peer, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
			if eerr != nil {
				t.Fatal(eerr)
			}
			if i == 0 {
				eng.SetInput(value)
			}
			nd.probe = &finishProbe{eng: eng, done: make(chan struct{})}
			peer, probe := nd.peer, nd.probe
			nd.port.After(0, func() { peer.StartIn(probe, probe.eng.Rounds(), startLead) })
		}
		deadline := time.After(time.Duration(byz+4) * 2 * delta * 4)
		for i, nd := range participants {
			if nd == nil {
				continue
			}
			select {
			case <-nd.probe.done:
			case <-deadline:
				t.Fatalf("epoch %d: peer %d did not finish", epoch, i)
			}
			res, ok := nd.probe.eng.Result(0)
			if !ok || !res.Accepted || res.Value != value {
				t.Fatalf("epoch %d: peer %d result %+v ok=%v", epoch, i, res, ok)
			}
		}
	}

	// Epoch 1: everybody up.
	runEpoch(1, nodes, wire.Value{0xE0, 0x01})

	// Node 4 crashes: the whole process state goes away.
	crashed := nodes[n-1]
	crashedAddr := crashed.port.Addr()
	crashed.port.Close()
	nodes[n-1] = nil

	// Survivors advance to the next epoch.
	for _, nd := range nodes {
		if nd != nil {
			peer := nd.peer
			nd.port.After(0, func() { peer.BumpSeqs() })
		}
	}

	// Node 4 restarts on the same address with the same identity: the
	// deterministic relaunch replays the identical key material, and the
	// bumped sequence table is recomputed, not copied (one epoch passed).
	bumped := make([]uint64, n)
	for i, s := range initialSeqs {
		bumped[i] = s + 1
	}
	restarted := launchNode(t, wire.NodeID(n-1), crashedAddr, n, byz, delta, seed, program, roster, bumped)
	restarted.peer.AlignInstance(1) // one epoch passed; survivors bumped their instance counter once
	restarted.port.Connect(addrs)
	nodes[n-1] = restarted

	// Give every side's broken connections a moment to be detected and
	// then run epoch 2 across all five nodes, restarted one included.
	time.Sleep(2 * redialBackoffForTest())
	runEpoch(2, nodes, wire.Value{0xE0, 0x02})
}

// redialBackoffForTest mirrors tcpnet's internal backoff constant; the
// sleep above only needs the right order of magnitude.
func redialBackoffForTest() time.Duration { return 200 * time.Millisecond }
