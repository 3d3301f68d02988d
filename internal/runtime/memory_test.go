package runtime_test

import (
	"testing"
	"time"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// windowMeter wraps a node's transport and records the most frames the
// node sent from inside one event — a delivery or a timer callback, each
// of which the runtime closes with one outbox flush — which is the width
// of the node's widest flush window (or more, had a protocol flushed in
// mid-callback).
type windowMeter struct {
	runtime.Transport
	cur, widest int
}

func (w *windowMeter) Send(dst wire.NodeID, payload []byte) {
	w.cur++
	w.Transport.Send(dst, payload)
}

func (w *windowMeter) event(fn func()) {
	w.cur = 0
	fn()
	w.widest = max(w.widest, w.cur)
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
// holds per link, in counts: a peer's outbox has slots and pooled batch
// buffers for its widest flush window and no more — nothing is sized from
// N, nothing kept per destination ever written to — the frame index is
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

	totalSlots, narrow := 0, 0
	for i, p := range d.Peers {
		widest := meters[i].widest
		slots, bufs, frames := p.OutboxHeld()
		// append grows a slice to less than twice what it had to hold.
		if slots > 2*widest || bufs > widest {
			t.Errorf("node %d holds %d outbox slots and %d pooled buffers, its widest flush window was %d", i, slots, bufs, widest)
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
	t.Logf("%d outbox slots across %d nodes after %d sampled epochs (dense: %d); %d nodes never wrote to more than %d peers at once",
		totalSlots, n, epochs, n*n, narrow, n/4)
}
