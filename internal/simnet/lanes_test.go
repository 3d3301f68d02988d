package simnet

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"sgxp2p/internal/telemetry"
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
// forwarded while its hop count lasts and recorded in the tracer, and
// every seventh node detaches itself from inside a delivery handler. Nodes
// keep their journals to themselves and reach the network only through
// their ports — the contract EnableLanes asks for.
type gossip struct {
	sim      *vclock.Sim
	net      *Network
	trace    *telemetry.Tracer
	ports    []*Port
	journals [][]arrival
	rounds   []int
}

const gossipNodes = 64

func newGossip(t *testing.T, bandwidth float64) *gossip {
	t.Helper()
	sim, net := newNet(t, gossipNodes, bandwidth)
	tr := telemetry.New(telemetry.Options{Clock: sim.Now})
	net.SetTelemetry(tr, nil)
	net.EnableLanes()
	sim.ArriveAt(0)
	g := &gossip{
		sim: sim, net: net, trace: tr,
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
	g.trace.Record(id, 0, telemetry.KindDeliver, src, uint64(payload[0]), "")
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
// counts, every node's journal with its timestamps, the simulator's trace
// and the tracer's stream — deliveries recorded on workers, detaches
// recorded as their event commits — must not depend on the pool.
func TestLanesMatchSerialNetwork(t *testing.T) {
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
		if s, p := serial.trace.Events(), parallel.trace.Events(); !reflect.DeepEqual(s, p) {
			t.Errorf("bandwidth %v: tracer streams differ: %d events on one worker, %d on four", bandwidth, len(s), len(p))
		}
		detaches := 0
		for _, ev := range parallel.trace.Events() {
			if ev.Kind == telemetry.KindDetach {
				detaches++
			}
		}
		if detaches == 0 {
			t.Errorf("bandwidth %v: no detach recorded", bandwidth)
		}
	}
}

// TestLaneRecordsReturnToFreeList checks the dealing of delivery records
// to the workers strands none: after a run on four workers the worker
// pools are empty, and the same burst again — on one goroutine, so out of
// the free list alone — finds enough records there to build no new one.
func TestLaneRecordsReturnToFreeList(t *testing.T) {
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
// lanes sending one frame each. Records are built a block at a time, so
// one goroutine builds the frames in flight rounded up to whole blocks.
// The workers take records a chunk at a time, so the most the heavy lane's
// worker can find missing, and build anew, is the chunk each of the others
// took for its one frame, plus the unused tail of a block on each worker;
// and every record built is back on the free list when the run ends.
func TestLaneRecordsDealtOnDemand(t *testing.T) {
	const nodes, primed, burst = 8, 100, 1000
	blocks := func(records int) int { return (records + recordBlock - 1) / recordBlock * recordBlock }
	run := func(procs int) *Network {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		sim, net := newNet(t, nodes, 0)
		net.EnableLanes()
		sim.ArriveAt(0)
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
		if len(net.free) != net.records {
			t.Fatalf("procs=%d: %d records on the free list after %d sends, %d built", procs, len(net.free), nodes*primed, net.records)
		}
		if net.records%recordBlock != 0 || net.records < blocks(nodes*primed) || net.records > blocks(nodes*primed)+procs*recordBlock {
			t.Fatalf("procs=%d: %d records built for %d sends in blocks of %d", procs, net.records, nodes*primed, recordBlock)
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
		if len(net.free) != net.records {
			t.Fatalf("procs=%d: %d records on the free list after the burst, %d built", procs, len(net.free), net.records)
		}
		return net
	}
	serial := run(1).records
	if want := blocks(burst + nodes - 1); serial != want {
		t.Fatalf("one goroutine built %d records for a window sending %d, want %d in blocks of %d", serial, burst+nodes-1, want, recordBlock)
	}
	for _, procs := range []int{2, 4} {
		if got := run(procs).records; got < serial || got > serial+procs*(recordChunk+recordBlock) {
			t.Errorf("procs=%d: %d records built, %d on one goroutine: more than a chunk (%d) and a block (%d) a worker apart", procs, got, serial, recordChunk, recordBlock)
		}
	}
}

// TestLaneSlabsComeBack checks the payload slabs that workers carve from
// and that deliveries on any worker release: after the gossip, on one
// goroutine or on workers, every slab is either the current slab of one
// carver, held by it alone, or an emptied spare with no payload in flight
// — and so again after a second run that starts from those slabs.
func TestLaneSlabsComeBack(t *testing.T) {
	for _, procs := range []int{1, 2, 4} {
		prev := runtime.GOMAXPROCS(procs)
		g := newGossip(t, 0)
		settled := func() {
			t.Helper()
			carvers := []*slab{g.net.slab}
			for w := range g.net.pools {
				carvers = append(carvers, g.net.pools[w].slab)
			}
			current := map[*slab]bool{}
			for _, s := range carvers {
				if s == nil {
					continue
				}
				if current[s] {
					t.Errorf("procs=%d: two carvers carve from one slab", procs)
				}
				current[s] = true
			}
			for s := range current {
				if s.live.Load() != 1 {
					t.Errorf("procs=%d: a current slab counts %d references, want its carver's alone", procs, s.live.Load())
				}
			}
			for _, s := range g.net.spare {
				if current[s] || s.live.Load() != 0 || len(s.buf) != 0 {
					t.Errorf("procs=%d: a spare slab is current: %v, counts %d references, holds %d bytes", procs, current[s], s.live.Load(), len(s.buf))
				}
			}
		}
		if err := g.sim.Run(); err != nil {
			t.Fatal(err)
		}
		if procs > 1 && g.sim.ParallelWindows() == 0 {
			t.Fatalf("procs=%d: no window fired on workers", procs)
		}
		settled()
		for i, p := range g.ports {
			id := wire.NodeID(i)
			g.rounds[id] = 0
			p.After(0, func() { g.tick(id) })
		}
		if err := g.sim.Run(); err != nil {
			t.Fatal(err)
		}
		settled()
		runtime.GOMAXPROCS(prev)
	}
}
