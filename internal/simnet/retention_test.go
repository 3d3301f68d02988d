package simnet_test

import (
	"testing"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/wire"
)

// flightMeter wraps every node's transport and follows the payload bytes
// in flight: sent and not yet delivered.
type flightMeter struct {
	cur, peak int
}

type meteredPort struct {
	runtime.Transport
	m *flightMeter
}

func (p *meteredPort) Send(dst wire.NodeID, payload []byte) {
	p.m.cur += len(payload)
	p.m.peak = max(p.m.peak, p.m.cur)
	p.Transport.Send(dst, payload)
}

func (p *meteredPort) SetHandler(h func(src wire.NodeID, payload []byte)) {
	p.Transport.SetHandler(func(src wire.NodeID, payload []byte) {
		p.m.cur -= len(payload)
		h(src, payload)
	})
}

// TestStandingBeaconPayloadRetention pins what the network keeps for
// delivery payloads on the beacon_opt shape, a standing N=256 sampled
// beacon: payloads are carved from shared slabs that go back to the
// spares once their deliveries fired, so the bytes kept follow the peak
// bytes in flight — plus the partly filled slab of the carver — instead
// of the largest frame each pooled record ever carried (1.7× the peak
// after 20 epochs, 2.1× after 800).
func TestStandingBeaconPayloadRetention(t *testing.T) {
	const n, byz, epochs = 256, 85, 20
	m := &flightMeter{}
	d, err := deploy.New(deploy.Options{N: n, T: byz, Seed: 1, Wrap: func(_ wire.NodeID, tr runtime.Transport) runtime.Transport {
		return &meteredPort{Transport: tr, m: m}
	}})
	if err != nil {
		t.Fatal(err)
	}
	for e := 0; e < epochs; e++ {
		if _, err := d.Epoch(byz, true, nil); err != nil {
			t.Fatal(err)
		}
	}
	if m.cur != 0 {
		t.Fatalf("%d bytes still in flight after the last epoch", m.cur)
	}
	slabs, held := d.Net.PayloadHeld()
	if limit := m.peak + m.peak/4 + 2*simnet.SlabSize; held > limit {
		t.Errorf("%d slabs keep %d payload bytes, the peak in flight was %d (limit %d)", slabs, held, m.peak, limit)
	}
	t.Logf("%d slabs keep %.2f MiB after %d epochs; peak in flight %.2f MiB", slabs, float64(held)/(1<<20), epochs, float64(m.peak)/(1<<20))
}
