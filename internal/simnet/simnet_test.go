package simnet

import (
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
)

func newNet(t *testing.T, n int, bandwidth float64) (*vclock.Sim, *Network) {
	t.Helper()
	sim := vclock.New()
	net, err := New(sim, Config{N: n, Delta: time.Second, Bandwidth: bandwidth, Seed: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return sim, net
}

func TestNewValidation(t *testing.T) {
	sim := vclock.New()
	if _, err := New(nil, Config{N: 1, Delta: time.Second}); err == nil {
		t.Error("nil sim accepted")
	}
	if _, err := New(sim, Config{N: 0, Delta: time.Second}); err == nil {
		t.Error("zero nodes accepted")
	}
	if _, err := New(sim, Config{N: 1}); err == nil {
		t.Error("zero delta accepted")
	}
}

func TestDeliveryWithinDelta(t *testing.T) {
	sim, net := newNet(t, 4, 0)
	var deliveredAt time.Duration
	var from wire.NodeID
	var got []byte
	net.SetHandler(1, func(src wire.NodeID, payload []byte) {
		deliveredAt = sim.Now()
		from = src
		got = payload
	})
	net.Send(0, 1, []byte("hello"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello" || from != 0 {
		t.Fatalf("delivery mismatch: src=%d payload=%q", from, got)
	}
	if deliveredAt <= 0 || deliveredAt > time.Second {
		t.Fatalf("delivered at %v, want (0, 1s]", deliveredAt)
	}
	if net.Traffic().Late != 0 {
		t.Fatalf("unexpected late deliveries: %d", net.Traffic().Late)
	}
}

func TestSelfAndOutOfRangeSendsIgnored(t *testing.T) {
	sim, net := newNet(t, 2, 0)
	net.SetHandler(0, func(wire.NodeID, []byte) { t.Error("self-delivery happened") })
	net.Send(0, 0, []byte("self"))
	net.Send(0, 99, []byte("oob"))
	net.Send(99, 0, []byte("oob-src"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := net.Traffic(); tr.Messages != 0 {
		t.Fatalf("counted %d messages, want 0", tr.Messages)
	}
}

func TestTrafficAccounting(t *testing.T) {
	sim, net := newNet(t, 3, 0)
	for id := wire.NodeID(0); id < 3; id++ {
		net.SetHandler(id, func(wire.NodeID, []byte) {})
	}
	net.Send(0, 1, make([]byte, 100))
	net.Send(0, 2, make([]byte, 50))
	net.Send(1, 2, make([]byte, 25))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	tr := net.Traffic()
	if tr.Messages != 3 || tr.Bytes != 175 {
		t.Fatalf("traffic = %+v, want 3 msgs / 175 bytes", tr)
	}
	if n0 := net.NodeTraffic(0); n0.Messages != 2 || n0.Bytes != 150 {
		t.Fatalf("node 0 traffic = %+v", n0)
	}
	net.ResetTraffic()
	if tr := net.Traffic(); tr.Messages != 0 || tr.Bytes != 0 {
		t.Fatalf("traffic after reset = %+v", tr)
	}
	if n0 := net.NodeTraffic(0); n0.Messages != 0 {
		t.Fatalf("node traffic after reset = %+v", n0)
	}
}

func TestDetachDropsBothDirections(t *testing.T) {
	sim, net := newNet(t, 3, 0)
	delivered := 0
	for id := wire.NodeID(0); id < 3; id++ {
		net.SetHandler(id, func(wire.NodeID, []byte) { delivered++ })
	}
	net.Detach(1)
	if !net.Detached(1) {
		t.Fatal("Detached(1) = false")
	}
	net.Send(0, 1, []byte("to detached"))
	net.Send(1, 2, []byte("from detached"))
	net.Send(0, 2, []byte("ok"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if delivered != 1 {
		t.Fatalf("delivered %d messages, want 1", delivered)
	}
	if tr := net.Traffic(); tr.Dropped != 2 {
		t.Fatalf("dropped = %d, want 2", tr.Dropped)
	}
}

func TestDetachMidFlightDropsDelivery(t *testing.T) {
	sim, net := newNet(t, 2, 0)
	net.SetHandler(1, func(wire.NodeID, []byte) { t.Error("delivered to node detached mid-flight") })
	net.Send(0, 1, []byte("in flight"))
	// Detach before any delivery event can fire (deliveries are > 0).
	net.Detach(1)
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if tr := net.Traffic(); tr.Dropped != 1 {
		t.Fatalf("dropped = %d, want 1", tr.Dropped)
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 1000 bytes/s: each 500-byte message takes 500ms on the link, so ten
	// messages serialize to 5s of queueing even though latency <= 1s.
	sim := vclock.New()
	net, err := New(sim, Config{N: 2, Delta: time.Second, Bandwidth: 1000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var last time.Duration
	count := 0
	net.SetHandler(1, func(wire.NodeID, []byte) {
		count++
		last = sim.Now()
	})
	for i := 0; i < 10; i++ {
		net.Send(0, 1, make([]byte, 500))
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Fatalf("delivered %d, want 10", count)
	}
	if last < 5*time.Second {
		t.Fatalf("last delivery at %v, want >= 5s (link-limited)", last)
	}
	if net.Traffic().Late == 0 {
		t.Fatal("expected late deliveries under link saturation")
	}
}

func TestUnlimitedBandwidthNoQueueing(t *testing.T) {
	sim, net := newNet(t, 2, 0)
	var last time.Duration
	net.SetHandler(1, func(wire.NodeID, []byte) { last = sim.Now() })
	for i := 0; i < 100; i++ {
		net.Send(0, 1, make([]byte, 1<<20))
	}
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if last > time.Second {
		t.Fatalf("last delivery at %v, want <= delta with unlimited bandwidth", last)
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() []time.Duration {
		sim := vclock.New()
		net, err := New(sim, Config{N: 4, Delta: time.Second, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var times []time.Duration
		for id := wire.NodeID(0); id < 4; id++ {
			net.SetHandler(id, func(wire.NodeID, []byte) { times = append(times, sim.Now()) })
		}
		for i := 0; i < 20; i++ {
			net.Send(wire.NodeID(i%4), wire.NodeID((i+1)%4), make([]byte, 64))
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		return times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different delivery counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery %d at %v vs %v: not deterministic", i, a[i], b[i])
		}
	}
}

func TestPortWrapsNetwork(t *testing.T) {
	sim, net := newNet(t, 2, 0)
	p0, p1 := net.Port(0), net.Port(1)
	if p0.ID() != 0 || p1.ID() != 1 {
		t.Fatal("port ids wrong")
	}
	got := ""
	p1.SetHandler(func(src wire.NodeID, payload []byte) { got = string(payload) })
	p0.Send(1, []byte("via port"))
	fired := false
	p0.After(2*time.Second, func() { fired = true })
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "via port" {
		t.Fatalf("payload = %q", got)
	}
	if !fired {
		t.Fatal("After callback did not fire")
	}
	if p0.Now() != sim.Now() {
		t.Fatal("Port.Now disagrees with simulator")
	}
	p1.Detach()
	if !net.Detached(1) {
		t.Fatal("Port.Detach did not detach")
	}
}

// Property: with unlimited bandwidth, every delivery happens within
// (0, Delta] of its send time, for arbitrary send schedules.
func TestQuickLatencyBound(t *testing.T) {
	f := func(seed int64, sends []uint8) bool {
		sim := vclock.New()
		net, err := New(sim, Config{N: 8, Delta: time.Second, Seed: seed})
		if err != nil {
			return false
		}
		ok := true
		sentAt := make(map[int]time.Duration)
		idx := 0
		for id := wire.NodeID(0); id < 8; id++ {
			net.SetHandler(id, func(src wire.NodeID, payload []byte) {
				i := int(payload[0]) | int(payload[1])<<8
				d := sim.Now() - sentAt[i]
				if d <= 0 || d > time.Second {
					ok = false
				}
			})
		}
		for _, s := range sends {
			src := wire.NodeID(s % 8)
			dst := wire.NodeID((s / 8) % 8)
			if src == dst {
				continue
			}
			i := idx
			idx++
			sentAt[i] = sim.Now()
			net.Send(src, dst, []byte{byte(i), byte(i >> 8)})
		}
		if err := sim.Run(); err != nil {
			return false
		}
		return ok && net.Traffic().Late == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkSendDeliver(b *testing.B) {
	sim := vclock.New()
	net, err := New(sim, Config{N: 2, Delta: time.Second, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	net.SetHandler(1, func(wire.NodeID, []byte) {})
	payload := make([]byte, 100)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Send(0, 1, payload)
		sim.RunUntil(sim.Now() + time.Second)
	}
}

func TestAddNodeGrowsNetwork(t *testing.T) {
	sim, net := newNet(t, 2, 0)
	id := net.AddNode()
	if id != 2 {
		t.Fatalf("new id = %d, want 2", id)
	}
	if net.Config().N != 3 {
		t.Fatalf("config N = %d, want 3", net.Config().N)
	}
	var got string
	net.SetHandler(id, func(src wire.NodeID, payload []byte) { got = string(payload) })
	net.Send(0, id, []byte("welcome"))
	var echoed string
	net.SetHandler(0, func(src wire.NodeID, payload []byte) {
		if src == id {
			echoed = string(payload)
		}
	})
	net.Send(id, 0, []byte("thanks"))
	if err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "welcome" || echoed != "thanks" {
		t.Fatalf("bidirectional traffic with joined node failed: %q %q", got, echoed)
	}
	if tr := net.NodeTraffic(id); tr.Messages != 1 {
		t.Fatalf("joined node traffic %+v", tr)
	}
	net.Detach(id)
	if !net.Detached(id) {
		t.Fatal("joined node cannot be detached")
	}
}
