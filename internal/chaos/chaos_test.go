package chaos

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// TestSameSeedSameTrace is the determinism contract: two runs of the same
// seed produce the identical schedule, the identical simulator
// interleaving (TraceHash and event count) and identical per-node
// outcomes, bit for bit.
func TestSameSeedSameTrace(t *testing.T) {
	for _, seed := range []int64{1, 7, 42, 1337} {
		a, err := RunERB(seed, 9, 3)
		if err != nil {
			t.Fatalf("seed %d: run A: %v", seed, err)
		}
		b, err := RunERB(seed, 9, 3)
		if err != nil {
			t.Fatalf("seed %d: run B: %v", seed, err)
		}
		if a.Schedule != b.Schedule {
			t.Fatalf("seed %d: schedules differ:\n  %s\n  %s", seed, a.Schedule, b.Schedule)
		}
		if a.TraceHash != b.TraceHash || a.Fired != b.Fired {
			t.Fatalf("seed %d: traces differ: %#x/%d events vs %#x/%d events",
				seed, a.TraceHash, a.Fired, b.TraceHash, b.Fired)
		}
		if !reflect.DeepEqual(a.Nodes, b.Nodes) {
			t.Fatalf("seed %d: node outcomes differ:\n%+v\n%+v", seed, a.Nodes, b.Nodes)
		}
		if a.Stats != b.Stats {
			t.Fatalf("seed %d: engine stats differ: %+v vs %+v", seed, a.Stats, b.Stats)
		}
	}
}

// TestDifferentSeedsDiverge sanity-checks that the fingerprint actually
// discriminates: across a handful of seeds at least two traces differ.
func TestDifferentSeedsDiverge(t *testing.T) {
	hashes := map[uint64]bool{}
	for seed := int64(1); seed <= 6; seed++ {
		o, err := RunERB(seed, 9, 3)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		hashes[o.TraceHash] = true
	}
	if len(hashes) < 2 {
		t.Fatalf("6 different seeds produced %d distinct traces", len(hashes))
	}
}

// TestCrashStopsParticipation crashes a non-initiator at round 2: the
// node observes no round past 1, is stopped at the end, and the honest
// rest still accepts the broadcast.
func TestCrashStopsParticipation(t *testing.T) {
	sched := NewSchedule().CrashAt(1, 2)
	o, err := RunERBSchedule(99, 5, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERB(o); err != nil {
		t.Fatal(err)
	}
	crashed := o.Nodes[1]
	if !crashed.Stopped {
		t.Fatalf("node 1 not stopped at end of run: %+v", crashed)
	}
	if crashed.LastRound != 1 {
		t.Fatalf("crashed node observed round %d, want 1 (crash fires before its round-2 tick)", crashed.LastRound)
	}
	for _, no := range o.Nodes {
		if no.Honest && !no.Accepted {
			t.Fatalf("honest node %d did not accept despite single crash: %+v", no.Node, no)
		}
	}
	if o.Stats.Crashes != 1 {
		t.Fatalf("engine stats: %+v, want 1 crash", o.Stats)
	}
}

// TestCrashRestart crashes a node and reboots it two rounds later: the
// restart must succeed (same keys, see deploy's lifecycle tests) and the
// node ends the run attached, though it sat the instance out.
func TestCrashRestart(t *testing.T) {
	sched := NewSchedule().CrashAt(3, 2)
	sched.RestartAfter(3, 2)
	o, err := RunERBSchedule(7, 9, 3, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERB(o); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Crashes != 1 || o.Stats.Restarts != 1 || o.Stats.RestartFailures != 0 {
		t.Fatalf("engine stats: %+v, want 1 crash + 1 restart", o.Stats)
	}
	if o.Nodes[3].Stopped {
		t.Fatalf("node 3 still stopped after scheduled restart: %+v", o.Nodes[3])
	}
	if o.Nodes[3].Decided && o.Nodes[3].Accepted {
		t.Fatalf("restarted node decided mid-flight instance it sat out: %+v", o.Nodes[3])
	}
}

// TestPartitionCutsTraffic cuts two nodes off for the whole run: the
// majority still agrees (the minority is charged to the fault budget)
// and the cut actually dropped envelopes in both directions.
func TestPartitionCutsTraffic(t *testing.T) {
	minority := []wire.NodeID{3, 4}
	majority := []wire.NodeID{0, 1, 2, 5, 6, 7, 8}
	sched := NewSchedule().Partition([][]wire.NodeID{majority, minority}, 1, 6)
	o, err := RunERBSchedule(11, 9, 4, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERB(o); err != nil {
		t.Fatal(err)
	}
	if o.F != 2 {
		t.Fatalf("faulty set %v, want the 2-node minority", o.Faulty)
	}
	if o.Stats.CutDrops == 0 {
		t.Fatal("partition active for the whole run but no envelope crossed the cut")
	}
	for _, no := range o.Nodes {
		if no.Honest && !no.Accepted {
			t.Fatalf("majority node %d did not accept: %+v", no.Node, no)
		}
	}
}

// TestFlipBehavior flips a node to full omission at round 1 and back to
// honest at round 3; the rest of the network is unaffected.
func TestFlipBehavior(t *testing.T) {
	sched := NewSchedule().
		FlipBehavior(2, 1, adversary.OmitAll()).
		FlipBehavior(2, 3, adversary.Behavior{})
	o, err := RunERBSchedule(5, 5, 2, sched)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckERB(o); err != nil {
		t.Fatal(err)
	}
	if o.Stats.Flips != 2 {
		t.Fatalf("engine stats: %+v, want 2 flips", o.Stats)
	}
}

// TestDelayDrainDeterministic runs a delay-heavy schedule twice: the
// post-run Drain's release/discard coin flips are part of the seeded
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
	sched, err := ParseSchedule("flip(0,omit-all)@r1 flip(1,omit-all)@r2 crash(2)@r3 flip(0,honest)@r5")
	if err != nil {
		t.Fatal(err)
	}
	net := &sink{}
	trace := telemetry.New(telemetry.Options{})
	f := NewFlips(adversary.New(0, net, 1), trace, sched)
	for _, step := range []struct {
		through, reached int
	}{
		{1, 0}, // omit-all from round 1
		{3, 0}, // node 1's flip and node 2's crash are not node 0's
		{6, 1}, // honest again
	} {
		f.Through(step.through)
		before := net.sent
		f.os.Send(1, []byte{0})
		if got := net.sent - before; got != step.reached {
			t.Fatalf("after Through(%d): %d envelopes reached the network, want %d", step.through, got, step.reached)
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

// trace, so both runs dispose of the held envelopes identically.
func TestDelayDrainDeterministic(t *testing.T) {
	mk := func() (*Outcome, error) {
		sched := NewSchedule().FlipBehavior(1, 1, adversary.DelayAll())
		return RunERBSchedule(23, 5, 2, sched)
	}
	a, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	b, err := mk()
	if err != nil {
		t.Fatal(err)
	}
	if a.Stats.DrainReleased+a.Stats.DrainDiscarded == 0 {
		t.Fatal("delay-all schedule held no envelopes to drain")
	}
	if a.Stats != b.Stats || a.TraceHash != b.TraceHash {
		t.Fatalf("drain not deterministic: %+v/%#x vs %+v/%#x",
			a.Stats, a.TraceHash, b.Stats, b.TraceHash)
	}
	if err := CheckERB(a); err != nil {
		t.Fatal(err)
	}
}

// TestScheduleString checks the canonical rendering used as the
// reproduction witness.
func TestScheduleString(t *testing.T) {
	s := NewSchedule().CrashAt(3, 2)
	s.RestartAfter(3, 1)
	s.FlipBehavior(1, 1, adversary.OmitAll())
	s.Partition([][]wire.NodeID{{0, 2, 4}, {1, 3}}, 2, 4)
	got := s.String()
	want := "flip(1,omit-all)@r1 crash(3)@r2 part([0 2 4|1 3])@r2 restart(3)@r3 heal@r4"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
	if NewSchedule().String() != "fault-free" {
		t.Fatalf("empty schedule renders %q", NewSchedule().String())
	}
}

// TestScheduleValidate exercises the static checks.
func TestScheduleValidate(t *testing.T) {
	if err := NewSchedule().CrashAt(9, 1).Validate(5, 2); err == nil {
		t.Fatal("out-of-range node not rejected")
	}
	if err := NewSchedule().Partition([][]wire.NodeID{{0, 1}, {1, 2}}, 1, 2).Validate(5, 2); err == nil {
		t.Fatal("overlapping partition groups not rejected")
	}
	if err := NewSchedule().CrashAt(0, 1).CrashAt(1, 1).CrashAt(2, 1).Validate(9, 2); err == nil {
		t.Fatal("fault budget overflow not rejected")
	}
	if err := NewSchedule().CrashAt(0, 1).Validate(5, 2); err != nil {
		t.Fatalf("valid schedule rejected: %v", err)
	}
}

// TestFaultyChargesUnlistedMajority pins that nodes a partition lists in
// no group sit in group 0, as the engine applies it: with {0} and {1, 2}
// listed out of five, group 0 is {0, 3, 4}, so the cut-off minority to
// charge is {1, 2}, which overflows t=1.
func TestFaultyChargesUnlistedMajority(t *testing.T) {
	s := NewSchedule().Partition([][]wire.NodeID{{0}, {1, 2}}, 1, 3)
	if got := s.Faulty(5); !reflect.DeepEqual(got, []wire.NodeID{1, 2}) {
		t.Fatalf("Faulty(5) = %v, want [1 2]", got)
	}
	if err := s.Validate(5, 1); err == nil {
		t.Fatal("a 2-node minority passed a t=1 budget")
	}
}

// TestParseScheduleRoundTrip pins ParseSchedule as the inverse of String:
// on a schedule holding every kind, and on every generated schedule of
// seeds 1–1000 at three network sizes.
func TestParseScheduleRoundTrip(t *testing.T) {
	every := NewSchedule().CrashAt(3, 2).
		FlipBehavior(1, 1, adversary.OmitAll()).
		FlipBehavior(1, 4, adversary.Behavior{}).
		Partition([][]wire.NodeID{{0, 2, 4}, {1, 3}}, 2, 4)
	every.RestartAfter(3, 1)
	// Every behavior form, the selective-CHOSEN split's among them.
	behaviors := NewSchedule()
	for i, b := range []adversary.Behavior{adversary.OmitEven(), adversary.DelayAll(), adversary.CorruptEverything(),
		adversary.Record(), adversary.OmitTo(), adversary.OmitTo(below(4)...), adversary.Chain([]wire.NodeID{2, 5}, 0, 6),
		adversary.OmitProbabilistic(0.25, 99), adversary.MisbehaveWithProbability(0.3, -7)} {
		behaviors.FlipBehavior(wire.NodeID(i), i+1, b)
	}
	split := NewSchedule()
	for _, node := range []wire.NodeID{5, 6, 7} {
		split.FlipBehavior(node, 1, adversary.OmitTo(below(4)...))
	}
	scheds := []*Schedule{NewSchedule(), every, behaviors, split}
	for _, nt := range [][2]int{{5, 2}, {9, 4}, {17, 8}} {
		for seed := int64(1); seed <= 1000; seed++ {
			scheds = append(scheds, Generate(seed, nt[0], nt[1], nt[1]+2))
		}
	}
	for _, s := range scheds {
		parsed, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q): %v", s, err)
		}
		if parsed.String() != s.String() {
			t.Fatalf("round trip of %q gave %q", s, parsed)
		}
	}
}

// TestParseScheduleReplays runs parsed schedules: the text of a generated
// schedule replays the identical run, so a printed Repro is a schedule.
func TestParseScheduleReplays(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sched := Generate(seed, 9, 4, 6)
		parsed, err := ParseSchedule(sched.String())
		if err != nil {
			t.Fatal(err)
		}
		a, err := RunERBSchedule(seed, 9, 4, sched)
		if err != nil {
			t.Fatal(err)
		}
		b, err := RunERBSchedule(seed, 9, 4, parsed)
		if err != nil {
			t.Fatal(err)
		}
		if a.TraceHash != b.TraceHash || a.EventsHash != b.EventsHash {
			t.Fatalf("seed %d (%s): parsed schedule replays %#x/%#x, generated %#x/%#x",
				seed, sched, b.TraceHash, b.EventsHash, a.TraceHash, a.EventsHash)
		}
	}
}

// TestParseScheduleRejects pins what does not parse.
func TestParseScheduleRejects(t *testing.T) {
	for _, text := range []string{
		"explode(1)@r2",
		"crash(1)@r2 heal",
		"crash(1)",
		"crash(1)@r-1",
		"crash(1)@r0",
		"crash(x)@r2",
		"flip(1,omit-low)@r1",
		"flip(1,)@r1",
		"flip(1,omit-all())@r1",
		"flip(1,record(1))@r1",
		"flip(1,omit-to)@r1",
		"flip(1,omit-to(0,x))@r1",
		"flip(1,omit-to(0,,1))@r1",
		"flip(1,only-to())@r1",
		"flip(1,only-to(1,2))@r1",
		"flip(1,omit-p(0.5))@r1",
		"flip(1,epoch-p(x,1))@r1",
		"part([0 1|2)@r1",
	} {
		if s, err := ParseSchedule(text); err == nil {
			t.Errorf("ParseSchedule(%q) = %q, want an error", text, s)
		}
	}
}

// TestGenerate checks the generator is deterministic and always within
// the fault budget.
func TestGenerate(t *testing.T) {
	distinct := map[string]bool{}
	for seed := int64(0); seed < 50; seed++ {
		a := Generate(seed, 9, 4, 6)
		b := Generate(seed, 9, 4, 6)
		if a.String() != b.String() {
			t.Fatalf("seed %d: generator not deterministic:\n  %s\n  %s", seed, a, b)
		}
		if err := a.Validate(9, 4); err != nil {
			t.Fatalf("seed %d: generated schedule invalid: %v", seed, err)
		}
		distinct[a.String()] = true
	}
	if len(distinct) < 10 {
		t.Fatalf("50 seeds produced only %d distinct schedules", len(distinct))
	}
}
