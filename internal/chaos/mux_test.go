package chaos

import (
	"fmt"
	"strings"
	"testing"

	"sgxp2p/internal/wire"
)

// TestMuxERBInvariants sweeps randomized fault schedules against many
// concurrent ERB broadcasts multiplexed over shared links: every one of
// the k instances must independently satisfy agreement, validity,
// integrity and termination on every honest node.
func TestMuxERBInvariants(t *testing.T) {
	seeds := 15
	if testing.Short() {
		seeds = 5
	}
	for _, c := range []struct{ n, t, k int }{
		{5, 2, 6},
		{9, 4, 9},
	} {
		for s := 1; s <= seeds; s++ {
			seed := int64(c.n)*20_000 + int64(s)
			o, err := RunMuxERB(seed, c.n, c.t, c.k)
			if err != nil {
				t.Fatalf("seed %d N=%d t=%d k=%d: run failed: %v", seed, c.n, c.t, c.k, err)
			}
			if err := CheckMuxERB(o); err != nil {
				t.Errorf("seed %d N=%d t=%d k=%d: %v", seed, c.n, c.t, c.k, err)
			}
		}
	}
}

// TestMuxTraceDeterministic pins replayability of multiplexed chaos runs:
// the same seed must produce byte-identical event streams, instance
// attribution included.
func TestMuxTraceDeterministic(t *testing.T) {
	a, err := RunMuxERB(31, 5, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMuxERB(31, 5, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if a.EventsHash != b.EventsHash {
		t.Fatalf("same seed, diverging event streams: %#x vs %#x", a.EventsHash, b.EventsHash)
	}
	if a.TraceHash != b.TraceHash {
		t.Fatalf("same seed, diverging sim traces: %#x vs %#x", a.TraceHash, b.TraceHash)
	}
}

// TestMuxViolationNamesInstance checks the attribution path: when one of
// many concurrent instances misbehaves, the violation error must name
// that instance and embed a flight dump filtered to its events — not the
// interleaved traffic of every neighbor instance.
func TestMuxViolationNamesInstance(t *testing.T) {
	o, err := RunMuxERB(31, 5, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMuxERB(o); err != nil {
		t.Fatalf("clean run failed checks: %v", err)
	}
	faulty := make(map[wire.NodeID]bool)
	for _, id := range o.Faulty {
		faulty[id] = true
	}
	// Tamper the recorded decision of the last honest node for one
	// mid-stream instance, so the check trips on agreement/integrity.
	j := o.K / 2
	inst := o.InstanceIDs[j]
	var node wire.NodeID
	for i := o.N - 1; i >= 0; i-- {
		if !faulty[wire.NodeID(i)] {
			node = wire.NodeID(i)
			break
		}
	}
	o.Decisions[j][node].Value[0] ^= 0xFF
	verr := CheckMuxERB(o)
	if verr == nil {
		t.Fatal("tampered outcome passed CheckMuxERB")
	}
	msg := verr.Error()
	for _, want := range []string{
		fmt.Sprintf("instance %d", inst),
		fmt.Sprintf("flight recorder, node %d, instance %d", node, inst),
		fmt.Sprintf("inst=%d", inst), // filtered flight lines carry the id
		"  r",                        // at least one flight-recorder line
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("violation message missing %q:\n%s", want, msg)
		}
	}
	// The dump is instance-filtered: no line may attribute to a sibling.
	for _, line := range strings.Split(msg, "\n") {
		if !strings.HasPrefix(line, "  r") {
			continue
		}
		for _, other := range o.InstanceIDs {
			if other != inst && strings.Contains(line, fmt.Sprintf("inst=%d", other)) {
				t.Fatalf("flight line attributes to sibling instance %d:\n%s", other, line)
			}
		}
	}
}

// TestMuxViolationTimelineIsExact checks that a violation's instance
// timeline is read out of the full event stream: the first broadcast's
// round-1 events are still in the dump although the same node recorded
// more than 4096 events after them (a per-node ring of that size, which
// this run used to have, had overwritten them).
func TestMuxViolationTimelineIsExact(t *testing.T) {
	const k = 800
	o, err := RunMuxERB(31, 5, 2, k)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckMuxERB(o); err != nil {
		t.Fatalf("clean run failed checks: %v", err)
	}
	faulty := make(map[wire.NodeID]bool)
	for _, id := range o.Faulty {
		faulty[id] = true
	}
	node := wire.NodeID(o.N - 1)
	for faulty[node] {
		node--
	}
	inst := o.InstanceIDs[0]
	flight := o.Trace.Flight(node)
	first, own := -1, 0
	for i, ev := range flight {
		if ev.Instance != inst {
			continue
		}
		if first < 0 {
			first = i
		}
		own++
	}
	if first < 0 || flight[first].Round != 1 {
		t.Fatalf("instance %d has no round-1 event on node %d", inst, node)
	}
	if later := len(flight) - first - 1; later <= 4096 {
		t.Fatalf("only %d events follow the instance's first on node %d; the test needs > 4096", later, node)
	}

	o.Decisions[0][node].Value[0] ^= 0xFF
	verr := CheckMuxERB(o)
	if verr == nil {
		t.Fatal("tampered outcome passed CheckMuxERB")
	}
	var timeline []string
	for _, line := range strings.Split(verr.Error(), "\n") {
		if strings.HasPrefix(line, "  r") {
			timeline = append(timeline, line)
		}
	}
	if len(timeline) != own || !strings.HasPrefix(timeline[0], "  r1 ") {
		t.Fatalf("violation timeline has %d lines, want the instance's %d events from round 1 on:\n%s", len(timeline), own, verr)
	}
}
