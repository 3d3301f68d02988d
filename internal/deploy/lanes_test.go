package deploy_test

import (
	"reflect"
	"testing"
	"time"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
)

// These tests pin the determinism contract of the window-parallel
// simulator (DESIGN.md §6): how many goroutines fire a lookahead window —
// one when GOMAXPROCS is 1, several otherwise — changes nothing a run
// computes. Every scenario runs at GOMAXPROCS 1, 2 and 4 and must end
// with the same event trace, event count, clock, traffic counters, per-node
// runtime stats and protocol decisions.
//
// Whether a window leaves Run's goroutine is otherwise the host's call —
// the simulator times a window's first events and hands the rest off when
// that pays — so the tests set the break-even themselves: at 0 every window
// with two lanes or more goes to the workers whole, at one nanosecond after
// its first event.

// laneOutcome is everything one run can be compared by.
type laneOutcome struct {
	Trace     uint64
	Fired     uint64
	Now       time.Duration
	Traffic   simnet.Traffic
	Stats     []runtime.Stats
	Halted    []bool
	Decisions any
}

// laneScenario drives a fresh deployment and returns its decisions.
type laneScenario struct {
	name      string
	opts      deploy.Options
	breakEven time.Duration // see above
	run       func(t *testing.T, d *deploy.Deployment) any
}

func (sc laneScenario) outcome(t *testing.T, procs int) (laneOutcome, uint64) {
	t.Helper()
	setProcs(t, procs)
	d, err := deploy.New(sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	out := laneOutcome{Decisions: sc.run(t, d)}
	out.Trace, out.Fired, out.Now = d.Sim.TraceHash(), d.Sim.FiredCount(), d.Sim.Now()
	out.Traffic = d.Net.Traffic()
	for _, p := range d.Peers {
		out.Stats = append(out.Stats, p.Stats())
		out.Halted = append(out.Halted, p.Halted())
	}
	return out, d.Sim.ParallelWindows()
}

// check runs the scenario on one, two and four workers and compares.
func (sc laneScenario) check(t *testing.T) laneOutcome {
	t.Helper()
	defer vclock.SetHandoffBreakEven(sc.breakEven)()
	serial, windows := sc.outcome(t, 1)
	if windows != 0 {
		t.Fatalf("%s: GOMAXPROCS=1 fired %d windows on workers", sc.name, windows)
	}
	for _, procs := range []int{2, 4} {
		got, windows := sc.outcome(t, procs)
		if windows == 0 {
			t.Fatalf("%s: GOMAXPROCS=%d fired no window on workers: the scenario is too light to compare anything", sc.name, procs)
		}
		if !reflect.DeepEqual(serial, got) {
			t.Errorf("%s: GOMAXPROCS=%d differs from GOMAXPROCS=1:\n one: trace %x fired %d now %v traffic %+v\n many: trace %x fired %d now %v traffic %+v\n decisions equal: %v, stats equal: %v",
				sc.name, procs, serial.Trace, serial.Fired, serial.Now, serial.Traffic,
				got.Trace, got.Fired, got.Now, got.Traffic,
				reflect.DeepEqual(serial.Decisions, got.Decisions), reflect.DeepEqual(serial.Stats, got.Stats))
		}
	}
	return serial
}

// muxBroadcasts runs k broadcasts behind one mux per node and returns
// results[request][node].
func muxBroadcasts(t *testing.T, d *deploy.Deployment, k, maxInFlight int) [][]erb.Result {
	t.Helper()
	n, tb := len(d.Peers), d.Opts.T
	engines := make([][]*erb.Engine, n)
	for i, p := range d.Peers {
		m := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: maxInFlight})
		engs := make([]*erb.Engine, k)
		engines[i] = engs
		self := p.ID()
		for j := 0; j < k; j++ {
			initiator := wire.NodeID(j % n)
			if _, err := m.Spawn(tb+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
				eng, err := erb.NewEngine(inst, erb.Config{T: tb, StartRound: inst.StartRound(), ExpectedInitiators: []wire.NodeID{initiator}})
				if err != nil {
					return nil, err
				}
				if self == initiator {
					eng.SetInput(muxValue(j))
				}
				engs[j] = eng
				return eng, nil
			}); err != nil {
				t.Fatal(err)
			}
		}
		p.Start(m, m.PlannedRounds())
	}
	if err := d.Run(); err != nil {
		t.Fatal(err)
	}
	out := make([][]erb.Result, k)
	for j := range out {
		out[j] = make([]erb.Result, n)
		for i := range out[j] {
			res, ok := engines[i][j].Result(wire.NodeID(j % n))
			if !ok {
				t.Fatalf("node %d request %d undecided", i, j)
			}
			out[j][i] = res
		}
	}
	return out
}

// epochs runs k ERNG epochs — Algorithm 3, or Algorithm 6 when optimized —
// and returns results[epoch][node].
func epochs(t *testing.T, d *deploy.Deployment, k int, optimized bool) [][]erng.Result {
	t.Helper()
	type decider interface {
		runtime.Protocol
		Rounds() int
		Result() (erng.Result, bool)
	}
	out := make([][]erng.Result, k)
	for e := range out {
		protos := make([]decider, len(d.Peers))
		for i, p := range d.Peers {
			var err error
			if optimized {
				protos[i], err = erng.NewOptimized(p, d.Opts.T, erng.ModeAuto, 0)
			} else {
				protos[i], err = erng.NewBasic(p, d.Opts.T)
			}
			if err != nil {
				t.Fatal(err)
			}
			p.Start(protos[i], protos[i].Rounds())
		}
		if err := d.Run(); err != nil {
			t.Fatal(err)
		}
		out[e] = make([]erng.Result, len(protos))
		for i, proto := range protos {
			res, ok := proto.Result()
			if !ok {
				t.Fatalf("epoch %d node %d undecided", e, i)
			}
			out[e][i] = res
		}
		for _, p := range d.Peers {
			p.BumpSeqs()
		}
	}
	return out
}

func TestLanesMatchSerialLoop(t *testing.T) {
	scenarios := []laneScenario{
		{
			name: "erb",
			opts: deploy.Options{N: 64, T: 31, Seed: 3, RealCrypto: true},
			run: func(t *testing.T, d *deploy.Deployment) any {
				var all []map[wire.NodeID]erb.Result
				for i := 0; i < 3; i++ {
					all = append(all, broadcast(t, d, wire.NodeID(17*i), wire.Value{byte(i + 1)}))
				}
				return all
			},
		},
		{
			name: "broadcast-many",
			opts: deploy.Options{N: 64, T: 31, Seed: 4},
			run: func(t *testing.T, d *deploy.Deployment) any {
				return muxBroadcasts(t, d, 24, 8)
			},
		},
		{
			name: "algorithm-3",
			opts: deploy.Options{N: 64, T: 31, Seed: 5},
			run: func(t *testing.T, d *deploy.Deployment) any {
				return epochs(t, d, 1, false)
			},
		},
		{
			name: "algorithm-6",
			opts: deploy.Options{N: 256, T: 85, Seed: 6},
			run: func(t *testing.T, d *deploy.Deployment) any {
				return epochs(t, d, 5, true)
			},
		},
		// One sampled epoch from cold, through the instance driver: no
		// channel is open when round 1 fires, so every pair the cluster uses
		// is derived by whichever worker fires its first frame, through the
		// one key cache.
		{
			name:      "algorithm-6-cold",
			opts:      deploy.Options{N: 256, T: 85, Seed: 10, RealCrypto: true},
			breakEven: time.Nanosecond,
			run: func(t *testing.T, d *deploy.Deployment) any {
				protos, err := d.Epoch(d.Opts.T, true, nil)
				if err != nil {
					t.Fatal(err)
				}
				if links := d.LinksEstablished(); links == 0 || links >= len(protos)*(len(protos)-1) {
					t.Fatalf("%d link ends after a cold sampled epoch: nothing was derived inside the run, or everything before it", links)
				}
				out := make([]erng.Result, len(protos))
				for i, proto := range protos {
					res, ok := proto.Result()
					if !ok {
						t.Fatalf("node %d undecided", i)
					}
					out[i] = res
				}
				return out
			},
		},
		// The two shapes whose round ticks the hand-off rule moves to the
		// workers, split where it splits them: after the first tick.
		{
			name:      "broadcast-many-split",
			opts:      deploy.Options{N: 64, T: 31, Seed: 7, RealCrypto: true},
			breakEven: time.Nanosecond,
			run: func(t *testing.T, d *deploy.Deployment) any {
				return muxBroadcasts(t, d, 64, 16)
			},
		},
		{
			name:      "algorithm-3-split",
			opts:      deploy.Options{N: 32, T: 15, Seed: 8},
			breakEven: time.Nanosecond,
			run: func(t *testing.T, d *deploy.Deployment) any {
				return epochs(t, d, 1, false)
			},
		},
	}
	for _, sc := range scenarios {
		for _, bandwidth := range []float64{0, simnet.DefaultBandwidth} {
			sc.opts.Bandwidth = bandwidth
			name := sc.name
			if bandwidth > 0 {
				name += "/bandwidth"
			}
			t.Run(name, func(t *testing.T) { sc.check(t) })
		}
	}
}

// TestLanesP4HaltsInsideWindow starves a broadcast of ACKs: just after
// the echo round's ticks, barrier events crash more than N-t nodes, so
// every surviving sender closes the round below its ACK threshold and
// halts itself — all in the one window that holds the next round's ticks.
// A node that detached in a window must look detached to the rest of that
// window and to the commit, or the drop counts would differ.
func TestLanesP4HaltsInsideWindow(t *testing.T) {
	const n, tb, crashed = 256, 127, 140
	sc := laneScenario{
		name: "p4-halts",
		opts: deploy.Options{N: n, T: tb, Seed: 9},
		run: func(t *testing.T, d *deploy.Deployment) any {
			at := d.Sim.Now() + d.RoundDuration() + d.Opts.Delta/20
			for i := 0; i < crashed; i++ {
				id := wire.NodeID(n - 1 - i)
				d.Sim.Schedule(at, func() {
					if err := d.Stop(id); err != nil {
						t.Errorf("stop %d: %v", id, err)
					}
				})
			}
			return broadcast(t, d, 0, wire.Value{0xD4})
		},
	}
	out := sc.check(t)
	halts := 0
	for _, st := range out.Stats {
		halts += int(st.Halts)
	}
	// The initiator does not echo its own value, so it alone has no
	// starved multicast to answer for.
	if want := n - crashed - 1; halts != want || out.Traffic.Dropped == 0 {
		t.Fatalf("%d nodes halted by P4 (want the %d echoing survivors), %d frames dropped", halts, want, out.Traffic.Dropped)
	}
}

// TestLanesJoinAndRestart exercises the membership changes with lanes on:
// a join grows the lane set mid-life, a restart gives a lane a new peer
// and a new enclave clock, and a wrapped joiner turns lanes off for good.
func TestLanesJoinAndRestart(t *testing.T) {
	sc := laneScenario{
		name: "join-restart",
		opts: deploy.Options{N: 64, T: 20, Seed: 12},
		run: func(t *testing.T, d *deploy.Deployment) any {
			var all []map[wire.NodeID]erb.Result
			all = append(all, broadcast(t, d, 1, wire.Value{1}))
			id, err := d.Join(deploy.JoinOptions{Sponsor: 2})
			if err != nil || int(id) != 64 {
				t.Fatalf("join: id %d, err %v", id, err)
			}
			all = append(all, broadcast(t, d, id, wire.Value{2}))
			if err := d.Stop(5); err != nil {
				t.Fatal(err)
			}
			down := broadcast(t, d, 6, wire.Value{3})
			delete(down, 5) // the crashed node ran the epoch alone, cut off
			all = append(all, down)
			if err := d.Restart(5); err != nil {
				t.Fatal(err)
			}
			all = append(all, broadcast(t, d, 5, wire.Value{4}))
			for i, res := range all {
				want := len(d.Peers)
				if i == 0 {
					want = 64
				}
				if i == 2 {
					want-- // node 5 is down
				}
				if len(res) != want {
					t.Errorf("broadcast %d: %d nodes decided, want %d", i, len(res), want)
				}
				for node, r := range res {
					if !r.Accepted || r.Value != (wire.Value{byte(i + 1)}) {
						t.Errorf("broadcast %d node %d: %+v", i, node, r)
					}
				}
			}
			return all
		},
	}
	sc.check(t)

	defer vclock.SetHandoffBreakEven(0)()
	setProcs(t, 4)
	d, err := deploy.New(sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	broadcast(t, d, 0, wire.Value{1})
	before := d.Sim.ParallelWindows()
	if before == 0 {
		t.Fatal("no window fired on workers before the wrapped join")
	}
	wrap := func(_ wire.NodeID, tr runtime.Transport) runtime.Transport { return tr }
	if _, err := d.Join(deploy.JoinOptions{Sponsor: 0, Wrap: wrap}); err != nil {
		t.Fatal(err)
	}
	joined := d.Sim.ParallelWindows()
	broadcast(t, d, 0, wire.Value{2})
	if after := d.Sim.ParallelWindows(); after != joined {
		t.Fatalf("%d windows fired on workers after a wrapped transport joined", after-joined)
	}
}

// TestLanesOffForUnsafeOptions pins the enabling rule: any option that
// brings caller code which is not goroutine-safe by contract (Wrap,
// Neighbors) or whose output is the event order itself (Trace, Metrics
// are covered by the telemetry tests' byte-identity) keeps every event
// firing alone.
func TestLanesOffForUnsafeOptions(t *testing.T) {
	defer vclock.SetHandoffBreakEven(0)()
	setProcs(t, 4)
	d, err := deploy.New(deploy.Options{N: 64, T: 31, Seed: 3,
		Wrap: func(_ wire.NodeID, tr runtime.Transport) runtime.Transport { return tr }})
	if err != nil {
		t.Fatal(err)
	}
	broadcast(t, d, 0, wire.Value{1})
	if w := d.Sim.ParallelWindows(); w != 0 {
		t.Fatalf("%d windows fired on workers under Options.Wrap", w)
	}
}
