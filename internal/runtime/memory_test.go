package runtime_test

import (
	"testing"
	"time"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// windowMeter wraps a node's transport and records the most frames, and
// the most envelope bytes, the node sent from inside one event — a
// delivery or a timer callback, each of which the runtime closes with one
// outbox flush — which is the width of the node's widest flush window (or
// more, had a protocol flushed in mid-callback).
type windowMeter struct {
	runtime.Transport
	cur, widest           int
	curBytes, widestBytes int
}

func (w *windowMeter) Send(dst wire.NodeID, payload []byte) {
	w.cur++
	w.curBytes += len(payload)
	w.Transport.Send(dst, payload)
}

func (w *windowMeter) event(fn func()) {
	w.cur, w.curBytes = 0, 0
	fn()
	w.widest = max(w.widest, w.cur)
	w.widestBytes = max(w.widestBytes, w.curBytes)
}

func (w *windowMeter) SetHandler(h func(src wire.NodeID, payload []byte)) {
	w.Transport.SetHandler(func(src wire.NodeID, payload []byte) {
		w.event(func() { h(src, payload) })
	})
}

func (w *windowMeter) After(d time.Duration, fn func()) {
	w.Transport.After(d, func() { w.event(fn) })
}

// oneEnded counts the pairs exactly one end of which is open.
func oneEnded(d *deploy.Deployment) int {
	n := 0
	for i, p := range d.Peers {
		for j := i + 1; j < len(d.Peers); j++ {
			if p.LinkOpen(wire.NodeID(j)) != d.Peers[j].LinkOpen(wire.NodeID(i)) {
				n++
			}
		}
	}
	return n
}

// TestSampledEpochMemoryFollowsLinks pins what a standing sampled beacon
// holds per link: a peer's outbox has slots for its widest flush window
// and retains fewer bytes than that window put on the wire — nothing is
// sized from N, nothing kept per destination ever written to — the frame
// index is
// empty once the last round closed, and the key cache holds only pairs
// whose second end has not opened yet: most of the used pairs one Δ into
// an epoch, when the members' round-1 multicast is still in flight, and
// none after it.
func TestSampledEpochMemoryFollowsLinks(t *testing.T) {
	const n, byz, epochs = 512, 170, 3
	meters := make([]*windowMeter, n)
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 77, Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
		meters[id] = &windowMeter{Transport: tr}
		return meters[id]
	}})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		inFlight := -1
		d.Sim.Schedule(d.Sim.Now()+d.Opts.Delta/2, func() {
			inFlight = d.KeyCacheLen()
			if open := oneEnded(d); inFlight > open {
				t.Errorf("epoch %d, round 1: %d pairs wait in the key cache, only %d have one end open", e, inFlight, open)
			}
		})
		if _, err := d.Epoch(byz, true, nil); err != nil {
			t.Fatal(err)
		}
		if e == 0 && inFlight < n {
			t.Errorf("epoch 0, round 1: %d pairs wait in the key cache, want a cluster's worth (the probe missed the multicast)", inFlight)
		}
		if waiting, open := d.KeyCacheLen(), oneEnded(d); waiting > open {
			t.Errorf("after epoch %d: %d pairs wait in the key cache, only %d have one end open", e, waiting, open)
		}
	}

	totalSlots, narrow, maxRatio := 0, 0, 0.0
	for i, p := range d.Peers {
		widest, widestBytes := meters[i].widest, meters[i].widestBytes
		slots, held, frames := p.OutboxHeld()
		// append grows a slice to less than twice what it had to hold. The
		// log holds a window's messages once, each shorter than the
		// envelope it left in, and a slot or a run is smaller than any
		// envelope, so the whole outbox fits in the widest window's bytes.
		if slots > 2*widest || held > widestBytes {
			t.Errorf("node %d holds %d outbox slots and %d bytes, its widest flush window was %d frames, %d bytes", i, slots, held, widest, widestBytes)
		}
		if widestBytes > 0 {
			maxRatio = max(maxRatio, float64(held)/float64(widestBytes))
		}
		if frames != 0 {
			t.Errorf("node %d: %d frames indexed after the last round closed", i, frames)
		}
		totalSlots += slots
		if widest < n/4 {
			narrow++
		}
	}
	// Only a cluster member ever writes to everyone in one window.
	if narrow < n/2 || totalSlots > n*n/2 {
		t.Errorf("%d of %d nodes never had a wide window, yet the outboxes hold %d slots (dense: %d)", narrow, n, totalSlots, n*n)
	}
	t.Logf("%d outbox slots across %d nodes after %d sampled epochs (dense: %d); %d nodes never wrote to more than %d peers at once; retained bytes at most %.2f of the widest window's",
		totalSlots, n, epochs, n*n, narrow, n/4, maxRatio)
}

// TestMuxOutboxRetention pins what the outboxes keep after the
// multiplexed call the erb_mux workload makes — 64 broadcasts at N=64, 16
// in flight — whose windows send a dozen or more messages to every
// destination: the window log holds each message once and the container
// scratch one frame, so the 64 outboxes together keep well under 0.5 MiB
// (a batch buffer per destination kept 5.9 MiB), and no peer's retained
// bytes come near one window's traffic to every destination.
func TestMuxOutboxRetention(t *testing.T) {
	const n, byz, calls, inFlight = 64, 31, 64, 16
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	engines := make([][]*erb.Engine, n)
	err = d.RunInstance(func(p *runtime.Peer) (runtime.Protocol, int, error) {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: inFlight})
		engines[p.ID()] = make([]*erb.Engine, calls)
		for j := 0; j < calls; j++ {
			initiator, self := wire.NodeID(j%n), p.ID()
			if _, serr := m.Spawn(byz+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
				eng, eerr := erb.NewEngine(inst, erb.Config{T: byz, StartRound: inst.StartRound(), ExpectedInitiators: []wire.NodeID{initiator}})
				if eerr == nil && self == initiator {
					eng.SetInput(wire.Value{byte(j), 0x5A})
				}
				engines[self][j] = eng
				return eng, eerr
			}); serr != nil {
				return nil, 0, serr
			}
		}
		return m, m.PlannedRounds(), nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < calls; j++ {
		if res, ok := engines[0][j].Result(wire.NodeID(j % n)); !ok || !res.Accepted {
			t.Fatalf("node 0 did not accept request %d", j)
		}
	}
	total := 0
	for i, p := range d.Peers {
		slots, held, _ := p.OutboxHeld()
		total += held
		if slots > 2*(n-1) {
			t.Errorf("node %d holds %d outbox slots for %d destinations", i, slots, n-1)
		}
		// A buffer per destination would be n-1 frames of at least one
		// message each.
		if held > 16<<10 {
			t.Errorf("node %d retains %d outbox bytes after the call", i, held)
		}
	}
	if total > 512<<10 {
		t.Errorf("the outboxes retain %d bytes after the call, want at most 0.5 MiB", total)
	}
	t.Logf("the %d outboxes retain %.1f KiB after %d broadcasts", n, float64(total)/1024, calls)
}
