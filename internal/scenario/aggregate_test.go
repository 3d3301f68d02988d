package scenario

import (
	"testing"
	"time"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// TestAggregatorKeysRowsByEpoch feeds two nodes' round events of three
// epochs — one node a little early, one late — and expects a row for every
// epoch and round, each with both nodes' samples.
func TestAggregatorKeysRowsByEpoch(t *testing.T) {
	const rounds, delta = 6, 100 * time.Millisecond
	a := NewAggregator(2, nil)
	a.setSchedule(rounds, delta)
	a.setStart(time.Now())
	slot := EpochWindow(rounds, delta)
	for e := range 3 {
		for r := uint32(1); r <= 4; r++ {
			at := time.Duration(e)*slot + time.Duration(r-1)*2*delta
			for id, skew := range []time.Duration{-3 * time.Millisecond, 40 * time.Millisecond} {
				a.event(id, telemetry.Event{Kind: telemetry.KindRound, Node: wire.NodeID(id), Round: r, At: max(at+skew, 0)})
			}
		}
	}
	if len(a.rounds) != 12 {
		t.Fatalf("%d rows for 3 epochs of 4 rounds, want 12", len(a.rounds))
	}
	for k, byNode := range a.rounds {
		if k.epoch > 2 || k.round < 1 || k.round > 4 || len(byNode) != 2 {
			t.Fatalf("row %+v holds %d samples", k, len(byNode))
		}
	}
}
