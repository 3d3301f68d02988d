package simnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
)

// arrival is one line of a node's receive journal.
type arrival struct {
	src  wire.NodeID
	hops byte
	at   time.Duration
}

// gossip is a deployment-free workload for the lane executor: every node
// multicasts from a port timer for three rounds, every delivery is
// forwarded while its hop count lasts, and every seventh node detaches
// itself from inside a delivery handler. Nodes keep their journals to
// themselves and reach the network only through their ports — the
// contract EnableLanes asks for.
type gossip struct {
	sim      *vclock.Sim
	net      *Network
	ports    []*Port
	journals [][]arrival
	rounds   []int
}

const gossipNodes = 64

func newGossip(t *testing.T, bandwidth float64) *gossip {
	t.Helper()
	sim, net := newNet(t, gossipNodes, bandwidth)
	net.EnableLanes()
	g := &gossip{
		sim: sim, net: net,
		ports:    make([]*Port, gossipNodes),
		journals: make([][]arrival, gossipNodes),
		rounds:   make([]int, gossipNodes),
	}
	for i := range g.ports {
		id := wire.NodeID(i)
		p := net.Port(id)
		g.ports[i] = p
		p.SetHandler(func(src wire.NodeID, payload []byte) { g.receive(id, src, payload) })
		p.After(0, func() { g.tick(id) })
	}
	return g
}

func (g *gossip) tick(id wire.NodeID) {
	p := g.ports[id]
	for dst := 0; dst < gossipNodes; dst++ {
		p.Send(wire.NodeID(dst), []byte{2, byte(id)})
	}
	if g.rounds[id]++; g.rounds[id] < 3 {
		p.After(2*g.net.Config().Delta, func() { g.tick(id) })
	}
}

func (g *gossip) receive(id, src wire.NodeID, payload []byte) {
	p := g.ports[id]
	g.journals[id] = append(g.journals[id], arrival{src: src, hops: payload[0], at: p.Now()})
	if id%7 == 3 && len(g.journals[id]) == 40 {
		// Halt mid-window: the frames still headed here drop, this one's
		// forward below drops at the sender.
		p.Detach()
	}
	if payload[0] > 0 {
		next := wire.NodeID((int(id)*5 + int(src) + 1) % gossipNodes)
		p.Send(next, []byte{payload[0] - 1, byte(id)})
	}
}

// TestLanesMatchSerialNetwork runs the gossip on a pool of one and a pool
// of four, with and without the shared-link queue: traffic, drops, late
// counts, every node's journal with its timestamps, and the simulator's
// trace must not depend on the pool.
func TestLanesMatchSerialNetwork(t *testing.T) {
	t.Cleanup(vclock.SetHandoffBreakEven(0))
	for _, bandwidth := range []float64{0, DefaultBandwidth / 64} {
		run := func(procs int) *gossip {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			g := newGossip(t, bandwidth)
			if err := g.sim.Run(); err != nil {
				t.Fatal(err)
			}
			return g
		}
		serial, parallel := run(1), run(4)
		if parallel.sim.ParallelWindows() == 0 || serial.sim.ParallelWindows() != 0 {
			t.Fatalf("bandwidth %v: %d windows on workers with a pool of four, %d with a pool of one",
				bandwidth, parallel.sim.ParallelWindows(), serial.sim.ParallelWindows())
		}
		st, pt := serial.net.Traffic(), parallel.net.Traffic()
		if st != pt {
			t.Errorf("bandwidth %v: traffic %+v on one worker, %+v on four", bandwidth, st, pt)
		}
		if st.Dropped == 0 {
			t.Errorf("bandwidth %v: nothing dropped: the detach path is not exercised", bandwidth)
		}
		if bandwidth > 0 && st.Late == 0 {
			t.Errorf("bandwidth %v: nothing late: the link queue is not exercised", bandwidth)
		}
		for i := 0; i < gossipNodes; i++ {
			id := wire.NodeID(i)
			if s, p := serial.net.NodeTraffic(id), parallel.net.NodeTraffic(id); s != p {
				t.Errorf("bandwidth %v node %d: traffic %+v on one worker, %+v on four", bandwidth, i, s, p)
			}
			if serial.net.Detached(id) != parallel.net.Detached(id) {
				t.Errorf("bandwidth %v node %d: detached on one side only", bandwidth, i)
			}
		}
		if !reflect.DeepEqual(serial.journals, parallel.journals) {
			t.Errorf("bandwidth %v: receive journals differ", bandwidth)
		}
		if s, p := serial.sim.TraceHash(), parallel.sim.TraceHash(); s != p {
			t.Errorf("bandwidth %v: trace hash %x on one worker, %x on four", bandwidth, s, p)
		}
		if s, p := serial.sim.FiredCount(), parallel.sim.FiredCount(); s != p {
			t.Errorf("bandwidth %v: %d events fired on one worker, %d on four", bandwidth, s, p)
		}
	}
}

// TestLaneRecordsReturnToFreeList checks the dealing of delivery records
// to the workers strands none: after a run on four workers the worker
// pools are empty, and the same burst again — on one goroutine, so out of
// the free list alone — finds enough records there to build no new one.
func TestLaneRecordsReturnToFreeList(t *testing.T) {
	t.Cleanup(vclock.SetHandoffBreakEven(0))
	prev := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(prev)
	g := newGossip(t, 0)
	if err := g.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if g.sim.ParallelWindows() == 0 {
		t.Fatal("no window fired on workers")
	}
	for _, pool := range g.net.pools {
		if len(pool.free) != 0 || len(pool.claimed) != 0 {
			t.Fatalf("worker pool not emptied after the window: %d records, %d lanes", len(pool.free), len(pool.claimed))
		}
	}
	records := len(g.net.free)
	runtime.GOMAXPROCS(1)
	for i, p := range g.ports {
		id := wire.NodeID(i)
		g.rounds[id] = 0
		p.After(0, func() { g.tick(id) })
	}
	if err := g.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got := len(g.net.free); got != records {
		t.Fatalf("free list holds %d records after the second burst, %d after the first", got, records)
	}
}

// TestLaneRecordsDealtOnDemand puts one window's demand for records on one
// lane — a multicast of more frames than the free list holds, next to
// lanes sending one frame each. The workers take records a chunk at a
// time, so the most the heavy lane's worker can find missing, and build
// anew, is the chunk each of the others took for its one frame; and every
// record is back on the free list when the run ends.
func TestLaneRecordsDealtOnDemand(t *testing.T) {
	t.Cleanup(vclock.SetHandoffBreakEven(0))
	const nodes, primed, burst = 8, 100, 1000
	run := func(procs int) *Network {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		sim, net := newNet(t, nodes, 0)
		net.EnableLanes()
		send := func(id, frames int) {
			p := net.Port(wire.NodeID(id))
			p.After(0, func() {
				for k := 0; k < frames; k++ {
					p.Send(wire.NodeID((id+1+k%(nodes-1))%nodes), []byte{byte(k)})
				}
			})
		}
		for id := 0; id < nodes; id++ {
			send(id, primed)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if len(net.free) != nodes*primed {
			t.Fatalf("procs=%d: %d records on the free list after %d sends", procs, len(net.free), nodes*primed)
		}
		send(0, burst)
		for id := 1; id < nodes; id++ {
			send(id, 1)
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if procs > 1 && sim.ParallelWindows() == 0 {
			t.Fatalf("procs=%d: no window fired on workers", procs)
		}
		for w, pool := range net.pools {
			if len(pool.free) != 0 || len(pool.claimed) != 0 {
				t.Errorf("procs=%d: worker %d still holds %d records and %d lanes", procs, w, len(pool.free), len(pool.claimed))
			}
		}
		return net
	}
	serial := len(run(1).free)
	if serial != burst+nodes-1 {
		t.Fatalf("one goroutine built %d records for a window sending %d", serial, burst+nodes-1)
	}
	for _, procs := range []int{2, 4} {
		if got := len(run(procs).free); got < serial || got > serial+procs*recordChunk {
			t.Errorf("procs=%d: %d records built, %d on one goroutine: more than a chunk (%d) a worker apart", procs, got, serial, recordChunk)
		}
	}
}
