package overlay_test

import (
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/overlay"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
)

// ringNeighbors builds a ring-with-chords adjacency: each node links to
// ring successor/predecessor and a chord at distance 5.
func ringNeighbors(id wire.NodeID, n int) []wire.NodeID {
	i := int(id)
	return []wire.NodeID{
		wire.NodeID((i + 1) % n),
		wire.NodeID((i - 1 + n) % n),
		wire.NodeID((i + 5) % n),
		wire.NodeID((i - 5 + n) % n),
	}
}

// lineNeighbors builds a path topology 0-1-2-...-n-1.
func lineNeighbors(id wire.NodeID, n int) []wire.NodeID {
	var out []wire.NodeID
	if int(id) > 0 {
		out = append(out, id-1)
	}
	if int(id) < n-1 {
		out = append(out, id+1)
	}
	return out
}

func TestDiameter(t *testing.T) {
	if d := overlay.Diameter(lineNeighbors, 5); d != 4 {
		t.Fatalf("line diameter = %d, want 4", d)
	}
	if d := overlay.Diameter(ringNeighbors, 16); d <= 0 || d > 5 {
		t.Fatalf("ring+chords diameter = %d, want small positive", d)
	}
	disconnected := func(id wire.NodeID, n int) []wire.NodeID { return nil }
	if d := overlay.Diameter(disconnected, 3); d != -1 {
		t.Fatalf("disconnected diameter = %d, want -1", d)
	}
}

func TestRouterValidation(t *testing.T) {
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{N: 2, Delta: time.Second, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := overlay.NewRouter(0, nil, net.Port(0), 0); err != overlay.ErrNoNeighbors {
		t.Fatalf("empty adjacency: %v", err)
	}
	if _, err := overlay.NewRouter(0, []wire.NodeID{1}, nil, 0); err == nil {
		t.Fatal("nil transport accepted")
	}
	// Self-loops are stripped; only a self-loop means no neighbors.
	if _, err := overlay.NewRouter(0, []wire.NodeID{0, 1}, net.Port(0), 0); err != nil {
		t.Fatalf("adjacency with self-loop rejected: %v", err)
	}
}

func TestMultiHopDelivery(t *testing.T) {
	// A 6-node line: a payload from 0 to 5 must flood across 5 hops.
	const n = 6
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{N: n, Delta: 100 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]*overlay.Router, n)
	for i := 0; i < n; i++ {
		r, err := overlay.NewRouter(wire.NodeID(i), lineNeighbors(wire.NodeID(i), n), net.Port(wire.NodeID(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	var got []byte
	var from wire.NodeID
	routers[5].SetHandler(func(src wire.NodeID, payload []byte) {
		from = src
		got = payload
	})
	delivered2 := 0
	routers[2].SetHandler(func(wire.NodeID, []byte) { delivered2++ })
	routers[0].Send(5, []byte("across the line"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "across the line" || from != 0 {
		t.Fatalf("delivery: src=%d payload=%q", from, got)
	}
	if delivered2 != 0 {
		t.Fatal("transit node delivered a frame not addressed to it")
	}
	if routers[2].Stats().Forwarded == 0 {
		t.Fatal("transit node forwarded nothing")
	}
	if routers[0].Stats().Originated != 1 {
		t.Fatalf("origin stats %+v", routers[0].Stats())
	}
}

func TestTTLBoundsPropagation(t *testing.T) {
	const n = 6
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{N: n, Delta: 100 * time.Millisecond, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]*overlay.Router, n)
	for i := 0; i < n; i++ {
		// TTL 3: frames can travel at most 3 hops.
		r, err := overlay.NewRouter(wire.NodeID(i), lineNeighbors(wire.NodeID(i), n), net.Port(wire.NodeID(i)), 3)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	delivered := false
	routers[5].SetHandler(func(wire.NodeID, []byte) { delivered = true })
	routers[0].Send(5, []byte("too far"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered {
		t.Fatal("frame crossed 5 hops despite TTL 3")
	}
}

func TestDeduplication(t *testing.T) {
	// In a cycle, frames come back around; dedup must stop re-flooding.
	const n = 5
	ring := func(id wire.NodeID, nn int) []wire.NodeID {
		return []wire.NodeID{wire.NodeID((int(id) + 1) % nn), wire.NodeID((int(id) - 1 + nn) % nn)}
	}
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{N: n, Delta: 50 * time.Millisecond, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	routers := make([]*overlay.Router, n)
	for i := 0; i < n; i++ {
		r, err := overlay.NewRouter(wire.NodeID(i), ring(wire.NodeID(i), n), net.Port(wire.NodeID(i)), 0)
		if err != nil {
			t.Fatal(err)
		}
		routers[i] = r
	}
	deliveries := 0
	routers[2].SetHandler(func(wire.NodeID, []byte) { deliveries++ })
	routers[0].Send(2, []byte("once"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if deliveries != 1 {
		t.Fatalf("delivered %d times, want exactly 1", deliveries)
	}
	dups := uint64(0)
	for _, r := range routers {
		dups += r.Stats().Duplicates
	}
	if dups == 0 {
		t.Fatal("a cycle must produce duplicate frames (then drop them)")
	}
}

func TestERBOverSparseOverlay(t *testing.T) {
	// The headline S5 relaxation: a full ERB broadcast over a 16-node
	// ring+chords overlay (diameter ~4) instead of a complete graph.
	const n, byz = 16, 7
	diam := overlay.Diameter(ringNeighbors, n)
	if diam <= 0 {
		t.Fatal("overlay disconnected")
	}
	link := 50 * time.Millisecond
	d, err := deploy.New(deploy.Options{
		N: n, T: byz, Seed: 71,
		Delta:     time.Duration(diam+1) * link,
		LinkDelta: link,
		Neighbors: ringNeighbors,
	})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*erb.Engine, n)
	for i, p := range d.Peers {
		eng, err := erb.NewEngine(p, erb.Config{T: byz, ExpectedInitiators: []wire.NodeID{0}})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	engines[0].SetInput(wire.Value{0x5E})
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	for i, eng := range engines {
		res, ok := eng.Result(0)
		if !ok || !res.Accepted || res.Value != (wire.Value{0x5E}) {
			t.Fatalf("node %d over sparse overlay: %+v ok=%v", i, res, ok)
		}
	}
}

func TestERBOverOverlayWithByzantineRelays(t *testing.T) {
	// Byzantine OSes at the physical layer drop every frame they should
	// forward. The ring+chords overlay keeps the honest subgraph
	// connected, so agreement must survive.
	const n, byz = 16, 3
	diam := overlay.Diameter(ringNeighbors, n)
	link := 50 * time.Millisecond
	d, err := deploy.New(deploy.Options{
		N: n, T: 7, Seed: 72,
		Delta:     time.Duration(2*diam+2) * link,
		LinkDelta: link,
		Neighbors: ringNeighbors,
	})
	if err != nil {
		t.Fatal(err)
	}
	for id := wire.NodeID(0); id < byz; id++ {
		d.OS(id).Set(adversary.OmitAll())
	}
	engines := make([]*erb.Engine, n)
	for i, p := range d.Peers {
		eng, err := erb.NewEngine(p, erb.Config{T: 7, ExpectedInitiators: []wire.NodeID{8}})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = eng
	}
	engines[8].SetInput(wire.Value{0xB2})
	for i, p := range d.Peers {
		p.Start(engines[i], engines[i].Rounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	var accepted, bottom int
	for i := byz; i < n; i++ {
		res, ok := engines[i].Result(8)
		if !ok {
			if d.Peers[i].Halted() {
				continue
			}
			t.Fatalf("honest node %d undecided", i)
		}
		if res.Accepted {
			if res.Value != (wire.Value{0xB2}) {
				t.Fatalf("node %d accepted wrong value %v", i, res.Value)
			}
			accepted++
		} else {
			bottom++
		}
	}
	if accepted > 0 && bottom > 0 {
		t.Fatalf("agreement violated over byzantine overlay: %d accepted, %d bottom", accepted, bottom)
	}
	if accepted == 0 {
		t.Fatal("no honest node accepted despite connected honest subgraph")
	}
}

// Property: frame encode/decode round-trips through the router's wire
// format (exercised indirectly via a two-node overlay).
func TestQuickPayloadIntegrity(t *testing.T) {
	f := func(payload []byte) bool {
		sim := vclock.New()
		net, err := simnet.New(sim, simnet.Config{N: 2, Delta: 10 * time.Millisecond, Seed: 5})
		if err != nil {
			return false
		}
		a, err := overlay.NewRouter(0, []wire.NodeID{1}, net.Port(0), 0)
		if err != nil {
			return false
		}
		b, err := overlay.NewRouter(1, []wire.NodeID{0}, net.Port(1), 0)
		if err != nil {
			return false
		}
		var got []byte
		ok := false
		b.SetHandler(func(src wire.NodeID, p []byte) {
			got = p
			ok = src == 0
		})
		a.Send(1, append([]byte(nil), payload...))
		if err := sim.Run(); err != nil {
			return false
		}
		if !ok || len(got) != len(payload) {
			return false
		}
		for i := range got {
			if got[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
