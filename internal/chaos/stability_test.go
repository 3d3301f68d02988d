package chaos

import (
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// frameAt names one frame by what its latency is drawn from: its link,
// its send instant and its position among that link's frames at that
// instant.
type frameAt struct {
	src, dst wire.NodeID
	sent     time.Duration
	pos      int
}

// latencies runs an ERB instance under sched with causal spans on and
// returns the latency of every frame that arrived, by its coordinates: a
// sender's seal hop is its send, the receiver's open hop of the same span
// its arrival.
func latencies(t *testing.T, seed int64, n, tb int, sched *Schedule) map[frameAt]time.Duration {
	t.Helper()
	if err := sched.Validate(n, tb); err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(sched)
	d, err := deploy.New(deploy.Options{N: n, T: tb, Seed: seed, Trace: telemetry.New(telemetry.Options{Spans: true})})
	if err != nil {
		t.Fatal(err)
	}
	eng.Arm(d)
	o, err := (&harness{d: d, eng: eng, sched: sched}).run("erb")
	if err != nil {
		t.Fatal(err)
	}
	type hop struct {
		src, dst wire.NodeID
		span     uint64
	}
	arrived := map[hop]time.Duration{}
	events := o.Trace.Events()
	for _, ev := range events {
		if ev.Kind == telemetry.KindOpen {
			arrived[hop{ev.Peer, ev.Node, ev.Span}] = ev.At
		}
	}
	type instant struct {
		src, dst wire.NodeID
		sent     time.Duration
	}
	next := map[instant]int{}
	out := map[frameAt]time.Duration{}
	for _, ev := range events {
		if ev.Kind != telemetry.KindSeal {
			continue
		}
		at, ok := arrived[hop{ev.Node, ev.Peer, ev.Span}]
		if !ok {
			continue // omitted by the OS: it never reached the network
		}
		in := instant{ev.Node, ev.Peer, ev.At}
		out[frameAt{in.src, in.dst, in.sent, next[in]}] = at - ev.At
		next[in]++
	}
	return out
}

// TestLatencyStableUnderRemovedFlip: a frame's latency is drawn from its
// coordinates alone (simnet's keyed draw, DESIGN.md §8), so removing one
// flip from a chaos schedule keeps the latency of every frame both runs
// carry on a link the flip does not touch — the flipped node's outgoing
// links — however the protocol's traffic changed around it. A draw from
// one stream in commit order fails this at the first frame after the
// first omission the removal undoes.
func TestLatencyStableUnderRemovedFlip(t *testing.T) {
	const seed, n, tb = 11, 9, 4
	flips := []struct {
		node  wire.NodeID
		round int
		b     adversary.Behavior
	}{
		{2, 1, adversary.OmitEven()},
		{5, 2, adversary.OmitTo(0, 1, 3)},
		{7, 2, adversary.OmitProbabilistic(0.5, 99)},
	}
	schedule := func(skip int) *Schedule {
		s := NewSchedule()
		for i, f := range flips {
			if i != skip {
				s.FlipBehavior(f.node, f.round, f.b)
			}
		}
		return s
	}
	full := latencies(t, seed, n, tb, schedule(-1))
	for skip, f := range flips {
		less := latencies(t, seed, n, tb, schedule(skip))
		if len(less) == len(full) {
			t.Fatalf("removing flip(%d,%s): %d frames arrived either way; the flip dropped nothing", f.node, f.b, len(full))
		}
		matched := 0
		for at, lat := range full {
			other, ok := less[at]
			if !ok || at.src == f.node {
				continue
			}
			matched++
			if other != lat {
				t.Fatalf("removing flip(%d,%s) moved frame %d→%d sent at %v (#%d on its link then): latency %v, was %v",
					f.node, f.b, at.src, at.dst, at.sent, at.pos, other, lat)
			}
		}
		if matched < len(full)/2 {
			t.Fatalf("removing flip(%d,%s): only %d of %d frames matched", f.node, f.b, matched, len(full))
		}
		t.Logf("removing flip(%d,%s): %d → %d frames, %d matched on untouched links", f.node, f.b, len(full), len(less), matched)
	}
}
