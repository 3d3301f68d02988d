package runtime

import (
	"testing"

	"sgxp2p/internal/wire"
)

// TestDigestIndexChosenPerRound pins the scan/index selection to the
// current round's tracker count: a round past ackIndexMin trackers
// resolves digest ACKs through trackerIdx, and the next, quiet round goes
// back to the linear scan — the index is emptied with the round that
// filled it, not kept filling forever after the first busy round.
func TestDigestIndexChosenPerRound(t *testing.T) {
	ack := func(round uint32, v wire.Value) *wire.Message {
		return &wire.Message{Type: wire.TypeAck, Round: round, HasValue: true, Value: v}
	}
	p := &Peer{round: 1}
	for i := 0; i <= ackIndexMin; i++ {
		p.newTracker(wire.Value{byte(i)}, 1)
	}
	if got := len(p.trackerIdx); got != ackIndexMin+1 {
		t.Fatalf("busy round indexed %d trackers, want all %d", got, ackIndexMin+1)
	}
	p.handleAck(3, ack(1, wire.Value{5}))
	if got := p.trackers[5].ackCount(); got != 1 {
		t.Fatalf("indexed ACK credited %d, want 1", got)
	}

	p.retireTrackers()
	p.round = 2
	p.newTracker(wire.Value{0xAA}, 1)
	if got := len(p.trackerIdx); got != 0 {
		t.Fatalf("one-tracker round left %d index entries, want 0 (the index is sticky)", got)
	}
	p.handleAck(3, ack(2, wire.Value{0xAA}))
	if got := p.trackers[0].ackCount(); got != 1 {
		t.Fatalf("scanned ACK credited %d, want 1", got)
	}
}
