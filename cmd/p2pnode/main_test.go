package main

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/chaos"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// TestRunRequiresControl pins that a node only runs under the scenario
// runner: without -control it exits with a usage error before launching
// anything.
func TestRunRequiresControl(t *testing.T) {
	err := run([]string{"-id", "0", "-n", "4", "-t", "1"})
	if err == nil || !strings.Contains(err.Error(), "-control is required") {
		t.Fatalf("run without -control: %v, want the usage error", err)
	}
}

// sink is a transport that only counts what reaches the network.
type sink struct{ sent int }

func (s *sink) Send(wire.NodeID, []byte)                   { s.sent++ }
func (s *sink) SetHandler(func(src wire.NodeID, p []byte)) {}
func (s *sink) Detach()                                    {}
func (s *sink) After(time.Duration, func())                {}
func (s *sink) Now() time.Duration                         { return 0 }

// TestFlipsApplyOwnEventsThroughRound pins how a node walks the run's
// fault schedule: it sets only the flips that name it, each once and in
// schedule order, up to the round it is asked for, and records each as
// the simulated fault engine does. So a flip in an epoch's idle slack
// (round 5 of a t=1 run) lands before the next epoch's first round,
// schedule round 6.
func TestFlipsApplyOwnEventsThroughRound(t *testing.T) {
	sched, err := chaos.ParseSchedule("flip(0,omit-all)@r1 flip(1,omit-all)@r2 crash(2)@r3 flip(0,honest)@r5")
	if err != nil {
		t.Fatal(err)
	}
	net := &sink{}
	trace := telemetry.New(telemetry.Options{})
	f := &flips{os: adversary.New(0, net, 1), trace: trace, events: sched.Events()}
	for _, step := range []struct {
		through, reached int
	}{
		{1, 0}, // omit-all from round 1
		{3, 0}, // node 1's flip and node 2's crash are not node 0's
		{6, 1}, // honest again
	} {
		f.through(step.through)
		before := net.sent
		f.os.Send(1, []byte{0})
		if got := net.sent - before; got != step.reached {
			t.Fatalf("after through(%d): %d envelopes reached the network, want %d", step.through, got, step.reached)
		}
	}
	var got []string
	for _, ev := range trace.Events() {
		if ev.Kind != telemetry.KindFlip || ev.Node != 0 || ev.Peer != wire.NoNode {
			t.Fatalf("unexpected event %+v", ev)
		}
		got = append(got, fmt.Sprintf("r%d:%s", ev.Round, ev.Note))
	}
	if strings.Join(got, " ") != "r1:omit-all r5:honest" {
		t.Fatalf("recorded flips %v, want node 0's two, once each", got)
	}
}
