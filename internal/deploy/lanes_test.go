package deploy_test

import (
	"reflect"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// These tests pin the determinism contract of the window-parallel
// simulator (DESIGN.md §6): how many goroutines fire a lookahead window —
// one when GOMAXPROCS is 1, several otherwise — changes nothing a run
// computes. Every scenario runs at GOMAXPROCS 1, 2 and 4 and must end
// with the same event trace, event count, clock, traffic counters, per-node
// runtime stats and protocol decisions.
//
// Whether a window leaves Run's goroutine, and where, is otherwise the
// host's call — the simulator summons its workers when a window's pace
// says they are worth it and hands them the rest when one arrives — so the
// tests say where the workers arrive (Sim.ArriveAt): at event 0 every
// window with two lanes or more goes to the workers whole, at event k after
// its first k events.

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
	name     string
	opts     deploy.Options
	arriveAt int // the event of every window the workers arrive at; see above
	run      func(t *testing.T, d *deploy.Deployment) any
}

func (sc laneScenario) outcome(t *testing.T, procs int) (laneOutcome, uint64) {
	t.Helper()
	setProcs(t, procs)
	d, err := deploy.New(sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Sim.ArriveAt(sc.arriveAt)
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

// sampledEpochs runs k Algorithm 6 epochs through the instance driver —
// which opens no channel ahead of a sampled epoch — and returns
// results[epoch][node].
func sampledEpochs(t *testing.T, d *deploy.Deployment, k int) [][]erng.Result {
	t.Helper()
	out := make([][]erng.Result, k)
	for e := range out {
		protos, err := d.Epoch(d.Opts.T, true, nil)
		if err != nil {
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
			name:     "algorithm-6-cold",
			opts:     deploy.Options{N: 256, T: 85, Seed: 10, RealCrypto: true},
			arriveAt: 1,
			run: func(t *testing.T, d *deploy.Deployment) any {
				out := sampledEpochs(t, d, 1)
				if links := d.LinksEstablished(); links == 0 || links >= d.Opts.N*(d.Opts.N-1) {
					t.Fatalf("%d link ends after a cold sampled epoch: nothing was derived inside the run, or everything before it", links)
				}
				return out
			},
		},
		// Sampled epochs one after another, split inside every window: each
		// epoch's new cluster first uses pairs the earlier ones never did, so
		// links open inside windows on both sides of a split, on whichever
		// worker fires their first frame.
		{
			name:     "algorithm-6-epochs-split",
			opts:     deploy.Options{N: 256, T: 85, Seed: 11, RealCrypto: true},
			arriveAt: 5,
			run: func(t *testing.T, d *deploy.Deployment) any {
				return sampledEpochs(t, d, 3)
			},
		},
		// ERB flooded over a sparse overlay: every router relays on its own
		// node's lane, and the one broadcast takes a window per hop.
		{
			name: "erb-overlay",
			opts: overlayOptions(t, 32, 15, 71),
			run: func(t *testing.T, d *deploy.Deployment) any {
				return broadcast(t, d, 0, wire.Value{0x5E})
			},
		},
		// A byzantine broadcast: the initiator heads a four-node chain, and
		// two more nodes corrupt and delay everything, the delayed ones let
		// go mid-run by an event that fires alone. Every OS acts on its own
		// node's lane.
		{
			name: "erb-byzantine",
			opts: deploy.Options{N: 64, T: 31, Seed: 13},
			run: func(t *testing.T, d *deploy.Deployment) any {
				chain := []wire.NodeID{0, 1, 2, 3}
				for i, id := range chain {
					d.OS(id).Set(adversary.Chain(chain, i, 4))
				}
				d.OS(10).Set(adversary.CorruptEverything())
				d.OS(11).Set(adversary.DelayAll())
				d.Sim.Schedule(d.Sim.Now()+2*d.RoundDuration()+d.Opts.Delta/2, func() { d.OS(11).Release() })
				res := broadcast(t, d, 0, wire.Value{0xB7})
				var oses []adversary.Stats
				for id := range d.Peers {
					oses = append(oses, d.OS(wire.NodeID(id)).Stats())
				}
				if st := d.OS(11).Stats(); st.Held == 0 || d.OS(10).Stats().Corrupted == 0 {
					t.Fatalf("byzantine OSes idle: delay %+v, corrupt %+v", st, d.OS(10).Stats())
				}
				return []any{res, oses}
			},
		},
		// The two shapes whose round ticks carry the most work, split after
		// the first tick.
		{
			name:     "broadcast-many-split",
			opts:     deploy.Options{N: 64, T: 31, Seed: 7, RealCrypto: true},
			arriveAt: 1,
			run: func(t *testing.T, d *deploy.Deployment) any {
				return muxBroadcasts(t, d, 64, 16)
			},
		},
		{
			name:     "algorithm-3-split",
			opts:     deploy.Options{N: 32, T: 15, Seed: 8},
			arriveAt: 1,
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
// and a new enclave clock, and a byzantine joiner keeps them on.
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

	setProcs(t, 4)
	d, err := deploy.New(sc.opts)
	if err != nil {
		t.Fatal(err)
	}
	d.Sim.ArriveAt(0)
	broadcast(t, d, 0, wire.Value{1})
	before := d.Sim.ParallelWindows()
	if before == 0 {
		t.Fatal("no window fired on workers before the byzantine join")
	}
	id, err := d.Join(deploy.JoinOptions{Sponsor: 0})
	if err != nil {
		t.Fatal(err)
	}
	d.OS(id).Set(adversary.OmitAll())
	joined := d.Sim.ParallelWindows()
	broadcast(t, d, 0, wire.Value{2})
	if after := d.Sim.ParallelWindows(); after == joined {
		t.Fatal("no window fired on workers after a byzantine joiner")
	}
	if d.OS(id).Stats().Dropped == 0 {
		t.Fatal("the omitting joiner dropped nothing")
	}
}

// TestLanesRule pins the enabling rule: only Options.Wrap, caller code
// that is not goroutine-safe by contract, keeps every event firing alone.
// A traced and metered deployment, causal spans included, fires its
// windows on the workers and records what it records on one goroutine
// (the chaos suite's TestTracedChaosOnLanes compares the exports), and so
// does an overlay (the "erb-overlay" case above).
func TestLanesRule(t *testing.T) {
	wrap := func(_ wire.NodeID, tr runtime.Transport) runtime.Transport { return tr }
	for _, c := range []struct {
		name  string
		opts  func() deploy.Options
		lanes bool
	}{
		{"wrap", func() deploy.Options { return deploy.Options{Wrap: wrap} }, false},
		{"trace+metrics", func() deploy.Options {
			return deploy.Options{Trace: telemetry.New(telemetry.Options{}), Metrics: telemetry.NewMetrics()}
		}, true},
		{"spans", func() deploy.Options { return deploy.Options{Trace: telemetry.New(telemetry.Options{Spans: true})} }, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			run := func(procs int) (*deploy.Deployment, uint64) {
				setProcs(t, procs)
				opts := c.opts()
				opts.N, opts.T, opts.Seed = 64, 31, 3
				d, err := deploy.New(opts)
				if err != nil {
					t.Fatal(err)
				}
				d.Sim.ArriveAt(0)
				broadcast(t, d, 0, wire.Value{1})
				return d, d.Sim.ParallelWindows()
			}
			one, _ := run(1)
			four, windows := run(4)
			if (windows > 0) != c.lanes {
				t.Fatalf("%d windows fired on workers, want them there: %v", windows, c.lanes)
			}
			tr1, tr4 := one.Opts.Trace, four.Opts.Trace
			if tr1.EventCount() != tr4.EventCount() || tr1.Hash() != tr4.Hash() {
				t.Fatalf("trace of %d events, hash %#x, on four workers; %d, %#x on one",
					tr4.EventCount(), tr4.Hash(), tr1.EventCount(), tr1.Hash())
			}
		})
	}
}

// TestMuxGaugesSumOverNodes: every node's mux adds its own running and
// backlogged instances to the deployment's gauges, so in a metered
// BroadcastMany they read N times one node's value — samples taken
// between windows by events that fire alone see every mux in the same
// state — and the same at GOMAXPROCS 1 and 4.
func TestMuxGaugesSumOverNodes(t *testing.T) {
	const n, k, inFlight = 16, 64, 16
	run := func(procs int) [][2]int64 {
		setProcs(t, procs)
		d, err := deploy.New(deploy.Options{N: n, T: 7, Seed: 14, Metrics: telemetry.NewMetrics()})
		if err != nil {
			t.Fatal(err)
		}
		d.Sim.ArriveAt(0)
		running := d.Opts.Metrics.Gauge("mux_running_instances")
		backlog := d.Opts.Metrics.Gauge("mux_backlog_instances")
		var samples [][2]int64
		for i := 0; i < 100; i++ {
			d.Sim.Schedule(d.Sim.Now()+d.RoundDuration()/4+time.Duration(i)*d.RoundDuration()/2, func() {
				samples = append(samples, [2]int64{running.Value(), backlog.Value()})
			})
		}
		muxBroadcasts(t, d, k, inFlight)
		if procs > 1 && d.Sim.ParallelWindows() == 0 {
			t.Fatalf("GOMAXPROCS=%d fired no window on workers", procs)
		}
		if running.Value() != 0 || backlog.Value() != 0 {
			t.Fatalf("gauges read %d running, %d backlogged after the run", running.Value(), backlog.Value())
		}
		return samples
	}
	one := run(1)
	var most [2]int64
	for _, s := range one {
		if s[0]%n != 0 || s[1]%n != 0 {
			t.Fatalf("gauges read %v: not %d times one node's value", s, n)
		}
		most = [2]int64{max(most[0], s[0]), max(most[1], s[1])}
	}
	if want := [2]int64{n * inFlight, n * (k - inFlight)}; most != want {
		t.Fatalf("gauges peaked at %v, want %v: %d muxes each running %d and holding back the other %d after round 1",
			most, want, n, inFlight, k-inFlight)
	}
	if four := run(4); !reflect.DeepEqual(one, four) {
		t.Fatalf("gauge samples at GOMAXPROCS=4 differ from GOMAXPROCS=1:\n%v\n%v", four, one)
	}
}
