package vclock

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"
)

const testLookahead = 100 * time.Millisecond

// setProcs sets GOMAXPROCS — the size of Run's worker pool — for the rest
// of the test.
func setProcs(t *testing.T, procs int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// logLanes is the smallest honest Lanes owner: a lane event reaches shared
// state only through do, which runs the closure at once when events fire
// one by one and holds it back until the event commits when a window
// fires on workers. splits journals how many events had fired inline since
// the last hand-off at each hand-off.
type logLanes struct {
	sim      *Sim
	windowed bool
	lanes    []logLane
	inline   int
	splits   []int
}

type logLane struct {
	log  []func() // nil ends one event's closures
	next int
	_    [32]byte
}

func newLogLanes(sim *Sim, lanes int) *logLanes {
	o := &logLanes{sim: sim, lanes: make([]logLane, lanes)}
	sim.SetLanes(o, lanes, testLookahead)
	return o
}

func (o *logLanes) do(lane int, fn func()) {
	if !o.windowed {
		o.inline++
		fn()
		return
	}
	o.lanes[lane].log = append(o.lanes[lane].log, fn)
}

func (o *logLanes) BeginWindow(int) {
	o.windowed = true
	o.splits = append(o.splits, o.inline)
}
func (o *logLanes) Claim(int, int) {}
func (o *logLanes) EndEvent(lane int) {
	o.lanes[lane].log = append(o.lanes[lane].log, nil)
}

func (o *logLanes) Commit(lane int) {
	l := &o.lanes[lane]
	for {
		fn := l.log[l.next]
		l.next++
		if fn == nil {
			return
		}
		fn()
	}
}

func (o *logLanes) EndWindow() {
	o.windowed, o.inline = false, 0
	for i := range o.lanes {
		o.lanes[i].log, o.lanes[i].next = o.lanes[i].log[:0], 0
	}
}

// fired is one journal line: which lane fired, at what time it read off
// the clock, and the event's ordinal on that lane.
type fired struct {
	lane int
	now  time.Duration
	k    int
}

// storm is a self-sustaining workload of lane events. Every event writes
// its own lane's journal (lane state, no synchronization), then, through
// the owner, writes the shared journal, draws from a shared rng and
// schedules a successor on another lane at least one lookahead ahead.
// Anything that fired or committed out of the serial order shows in the
// shared journal, the rng stream (hence the successors' times) and the
// trace hash.
type storm struct {
	sim    *Sim
	owner  *logLanes
	rng    *rand.Rand
	budget int
	perLan [][]fired
	shared []fired
}

const stormLanes = 64

// newStorm starts eight events per lane inside the first window, 512 in
// all; each spawns one successor while the budget lasts.
func newStorm(budget int) *storm { return newStormOf(stormLanes, 8, budget) }

func newStormOf(lanes, perLane, budget int) *storm {
	sim := New()
	sim.SetHorizon(10 * testLookahead)
	st := &storm{
		sim:    sim,
		owner:  newLogLanes(sim, lanes),
		rng:    rand.New(rand.NewSource(7)),
		budget: budget,
		perLan: make([][]fired, lanes),
	}
	for lane := 0; lane < lanes; lane++ {
		for k := 0; k < perLane; k++ {
			st.schedule(lane, time.Duration(st.rng.Int63n(int64(testLookahead))))
		}
	}
	return st
}

func (st *storm) schedule(lane int, at time.Duration) {
	st.sim.ScheduleLane(lane, at, func() { st.fire(lane) })
}

func (st *storm) fire(lane int) {
	ev := fired{lane: lane, now: st.sim.LaneNow(lane), k: len(st.perLan[lane])}
	st.perLan[lane] = append(st.perLan[lane], ev)
	st.owner.do(lane, func() {
		st.shared = append(st.shared, ev)
		if st.budget == 0 {
			return
		}
		st.budget--
		next := (lane*7 + ev.k + 1) % len(st.perLan)
		st.schedule(next, st.sim.Now()+testLookahead+time.Duration(st.rng.Int63n(int64(testLookahead))))
	})
}

// runStorm runs the storm and fails the test if a worker outlives Run.
func runStorm(t *testing.T, st *storm) {
	t.Helper()
	before := runtime.NumGoroutine()
	if err := st.sim.Run(); err != nil {
		t.Fatal(err)
	}
	// Run's workers have returned (stopWorkers waits for them); give the
	// runtime a moment to retire the goroutines it counts — longer than a
	// few yields when there are more workers than CPUs.
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
		time.Sleep(100 * time.Microsecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("procs=%d: %d goroutines before Run, %d after", runtime.GOMAXPROCS(0), before, after)
	}
}

// TestLaneWindowsMatchSerialLoop runs the storm on a pool of one, on a pool
// of four with every window handed off whole, and on a pool of two where
// the host decides: everything observable must be identical.
func TestLaneWindowsMatchSerialLoop(t *testing.T) {
	run := func(procs, k int) *storm {
		setProcs(t, procs)
		st := newStorm(20000)
		st.sim.ArriveAt(k)
		runStorm(t, st)
		return st
	}
	serial := run(1, -1)
	if serial.sim.ParallelWindows() != 0 {
		t.Errorf("pool of one fired %d windows on workers", serial.sim.ParallelWindows())
	}
	for _, c := range []struct{ procs, k int }{{4, 0}, {2, -1}} {
		parallel := run(c.procs, c.k)
		if c.k == 0 && parallel.sim.ParallelWindows() == 0 {
			t.Fatal("pool of four fired no window on workers: the test compares nothing")
		}
		if s, p := serial.sim.TraceHash(), parallel.sim.TraceHash(); s != p {
			t.Errorf("procs=%d: trace hash %x on one worker, %x on several", c.procs, s, p)
		}
		if s, p := serial.sim.FiredCount(), parallel.sim.FiredCount(); s != p || s != 20000+8*stormLanes {
			t.Errorf("procs=%d: fired %d on one worker, %d on several, want %d", c.procs, s, p, 20000+8*stormLanes)
		}
		if s, p := serial.sim.Now(), parallel.sim.Now(); s != p {
			t.Errorf("procs=%d: clock ends at %v on one worker, %v on several", c.procs, s, p)
		}
		if !reflect.DeepEqual(serial.shared, parallel.shared) {
			t.Errorf("procs=%d: shared journals differ: events committed in different orders", c.procs)
		}
		if !reflect.DeepEqual(serial.perLan, parallel.perLan) {
			t.Errorf("procs=%d: lane journals differ: a lane's events fired out of order or read a different clock", c.procs)
		}
	}
}

// TestHandoffAtAnyIndexMatchesSerial splits windows everywhere a window can
// split: the storm runs with its workers arriving at event k of every
// window, for every k of its first — before the first event, with one
// event left, and wherever in between a lane has events on both sides —
// and must come out as it does on one goroutine.
func TestHandoffAtAnyIndexMatchesSerial(t *testing.T) {
	for _, shape := range []struct{ lanes, perLane int }{{3, 3}, {8, 4}} {
		first := shape.lanes * shape.perLane // events of the first window
		run := func(k int) *storm {
			st := newStormOf(shape.lanes, shape.perLane, 3000)
			st.sim.ArriveAt(k)
			if err := st.sim.Run(); err != nil {
				t.Fatal(err)
			}
			return st
		}
		setProcs(t, 1)
		serial := run(-1)
		if len(serial.owner.splits) != 0 {
			t.Fatalf("the reference run handed %d windows off", len(serial.owner.splits))
		}
		for _, procs := range []int{1, 2, 4} {
			setProcs(t, procs)
			for k := 0; k < first; k++ {
				got := run(k)
				if s, g := serial.sim.TraceHash(), got.sim.TraceHash(); s != g {
					t.Errorf("%dx%d procs=%d k=%d: trace hash %x, serial %x", shape.lanes, shape.perLane, procs, k, g, s)
				}
				if s, g := serial.sim.FiredCount(), got.sim.FiredCount(); s != g {
					t.Errorf("%dx%d procs=%d k=%d: fired %d, serial %d", shape.lanes, shape.perLane, procs, k, g, s)
				}
				if !reflect.DeepEqual(serial.shared, got.shared) {
					t.Errorf("%dx%d procs=%d k=%d: events committed in another order", shape.lanes, shape.perLane, procs, k)
				}
				if !reflect.DeepEqual(serial.perLan, got.perLan) {
					t.Errorf("%dx%d procs=%d k=%d: a lane's events fired out of order or read a different clock", shape.lanes, shape.perLane, procs, k)
				}
				// The first window splits exactly at k — if two lanes are left.
				left := map[int]bool{}
				for _, ev := range serial.shared[k:first] {
					left[ev.lane] = true
				}
				if procs > 1 && len(left) > 1 {
					if sp := got.owner.splits; len(sp) == 0 || sp[0] != k {
						t.Errorf("%dx%d procs=%d k=%d: hand-offs after %v inline events", shape.lanes, shape.perLane, procs, k, sp)
					}
				}
				if c, windows := got.sim.LaneCounts(), serial.sim.LaneCounts().Inline; c.HandedOff != uint64(len(got.owner.splits)) || c.Inline+c.HandedOff != windows || (c.HandedOff == 0) != (c.WorkerEvents == 0) {
					t.Errorf("%dx%d procs=%d k=%d: counts %+v after %d hand-offs in %d windows", shape.lanes, shape.perLane, procs, k, c, len(got.owner.splits), windows)
				}
				if procs == 1 && got.sim.ParallelWindows() != 0 {
					t.Errorf("%dx%d k=%d: a pool of one handed %d windows off", shape.lanes, shape.perLane, k, got.sim.ParallelWindows())
				}
			}
		}
	}
}

// TestLaneCountsAccountForEveryWindow pins what LaneCounts reports, under
// the host's rule and under forced arrivals — at the first event, inside
// the larger windows, and after every window's end: every window is
// counted once, inline or handed off; every summon ends inside its window,
// in a hand-off or a cancel; a pool of one never summons; and no worker
// outlives Run.
func TestLaneCountsAccountForEveryWindow(t *testing.T) {
	run := func(procs, k int) LaneCounts {
		setProcs(t, procs)
		st := newStorm(20000)
		st.sim.ArriveAt(k)
		runStorm(t, st)
		return st.sim.LaneCounts()
	}
	windows := run(1, -1).Inline
	for _, procs := range []int{1, 2, 4} {
		for _, k := range []int{-1, 0, 100, 1 << 20} {
			c := run(procs, k)
			if c.Inline+c.HandedOff != windows || c.HandedOff > c.Summoned || c.Summoned != c.HandedOff+c.Cancelled || (c.HandedOff == 0) != (c.WorkerEvents == 0) {
				t.Errorf("procs=%d k=%d: counts %+v in %d windows", procs, k, c, windows)
			}
			switch {
			case procs == 1 && c.Summoned != 0:
				t.Errorf("k=%d: a pool of one summoned %d times", k, c.Summoned)
			case procs > 1 && k == 0 && c.HandedOff == 0:
				t.Errorf("procs=%d: workers arriving at every window's first event took none", procs)
			case procs > 1 && k == 1<<20 && (c.HandedOff != 0 || c.Cancelled == 0):
				t.Errorf("procs=%d: workers arriving after every window's end: %+v", procs, c)
			case procs > 1 && k >= 0 && c.Arrival == 0:
				t.Errorf("procs=%d k=%d: %d summons measured no arrival latency", procs, k, c.Summoned)
			}
		}
	}
}

// TestUntaggedEventIsBarrier puts an untagged event in the middle of what
// would be one window: the lane events before it fire (and commit) before
// it runs, the ones after it after.
func TestUntaggedEventIsBarrier(t *testing.T) {
	// Events this light never look worth a summons to the measured rule.
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		sim := New()
		sim.ArriveAt(0)
		owner := newLogLanes(sim, stormLanes)
		committed := 0
		lane := func(l int) func() {
			return func() { owner.do(l, func() { committed++ }) }
		}
		const each = 5 * stormLanes // events on either side of the barrier
		for i := 0; i < each; i++ {
			sim.ScheduleLane(i%stormLanes, time.Duration(i), lane(i%stormLanes))
		}
		sawBefore := -1
		sim.Schedule(time.Duration(each), func() { sawBefore = committed })
		for i := 0; i < each; i++ {
			// Same time as the barrier, later sequence: still after it.
			sim.ScheduleLane(i%stormLanes, time.Duration(each), lane(i%stormLanes))
		}
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		if sawBefore != each || committed != 2*each {
			t.Errorf("procs=%d: barrier saw %d of %d earlier lane events committed, %d in total (want %d)", procs, sawBefore, each, committed, 2*each)
		}
		if procs > 1 && sim.ParallelWindows() != 2 {
			t.Errorf("procs=%d: %d windows on workers, want one on each side of the barrier", procs, sim.ParallelWindows())
		}
	}
}

// TestDeadlineAndStopInsideWindow cuts a window short both ways: a
// deadline that falls inside it, and a Stop from a barrier event inside
// it. Either way exactly the events up to the cut fire, and a later Run
// fires the rest.
func TestDeadlineAndStopInsideWindow(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		const events = 8 * stormLanes
		build := func() (*Sim, *int) {
			sim := New()
			sim.ArriveAt(0)
			owner := newLogLanes(sim, stormLanes)
			committed := new(int)
			for i := 0; i < events; i++ {
				l := i % stormLanes
				// One event per nanosecond: all inside one lookahead.
				sim.ScheduleLane(l, time.Duration(i), func() { owner.do(l, func() { *committed++ }) })
			}
			return sim, committed
		}
		const cut = events / 2

		sim, committed := build()
		sim.SetDeadline(cut)
		if err := sim.Run(); err != nil {
			t.Fatal(err)
		}
		// Events at the deadline itself still fire.
		if *committed != cut+1 || sim.Now() != cut || sim.Pending() != events-cut-1 {
			t.Errorf("procs=%d deadline: committed %d (want %d), now %v, pending %d", procs, *committed, cut+1, sim.Now(), sim.Pending())
		}
		sim.SetDeadline(0)
		if err := sim.Run(); err != nil || *committed != events {
			t.Errorf("procs=%d after deadline: err %v, committed %d of %d", procs, err, *committed, events)
		}

		sim, committed = build()
		// Scheduled last, so at time cut it follows the lane event there.
		sim.Schedule(cut, sim.Stop)
		if err := sim.Run(); !errors.Is(err, ErrStopped) {
			t.Fatalf("procs=%d stop: Run returned %v", procs, err)
		}
		if *committed != cut+1 || sim.Pending() != events-cut-1 {
			t.Errorf("procs=%d stop: committed %d (want %d), pending %d", procs, *committed, cut+1, sim.Pending())
		}
		if err := sim.Run(); err != nil || *committed != events {
			t.Errorf("procs=%d after stop: err %v, committed %d of %d", procs, err, *committed, events)
		}
	}
}

// TestStepAndRunUntilAfterParallelRun checks that the one-at-a-time
// driver, RunUntil, keeps working on a simulator whose Run used workers —
// one event at a step, then a stretch: lane events fire inline, act
// directly, and LaneNow follows the clock.
func TestStepAndRunUntilAfterParallelRun(t *testing.T) {
	setProcs(t, 4)
	st := newStorm(2000)
	st.sim.ArriveAt(0)
	if err := st.sim.Run(); err != nil {
		t.Fatal(err)
	}
	if st.sim.ParallelWindows() == 0 {
		t.Fatal("Run fired no window on workers")
	}
	windows, base := st.sim.ParallelWindows(), st.sim.Now()
	var saw []time.Duration
	for i := 1; i <= 4; i++ {
		st.sim.ScheduleLane(i, base+time.Duration(i), func() {
			now := st.sim.LaneNow(i)
			st.owner.do(i, func() { saw = append(saw, now) })
		})
	}
	if st.sim.RunUntil(base + 1); len(saw) != 1 || saw[0] != base+1 {
		t.Fatalf("RunUntil fired %v, want the event at %v", saw, base+1)
	}
	st.sim.RunUntil(base + 3)
	if want := []time.Duration{base + 1, base + 2, base + 3}; !reflect.DeepEqual(saw, want) || st.sim.Pending() != 1 {
		t.Fatalf("RunUntil fired %v (pending %d), want %v and one pending", saw, st.sim.Pending(), want)
	}
	if st.sim.ParallelWindows() != windows {
		t.Error("RunUntil fired a window on workers")
	}
}

// TestLaneTimerShorterThanLookaheadRejected checks the promise Run relies
// on is enforced, not assumed: an event a lane schedules inside the
// window being fired panics, on one worker and on four alike.
func TestLaneTimerShorterThanLookaheadRejected(t *testing.T) {
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		sim := New()
		sim.ArriveAt(0)
		owner := newLogLanes(sim, stormLanes)
		for i := 0; i < 8*stormLanes; i++ {
			l := i % stormLanes
			sim.ScheduleLane(l, time.Duration(i), func() {
				if i == 3*stormLanes {
					owner.do(l, func() { sim.ScheduleLane(l, sim.Now()+testLookahead/2, func() {}) })
				}
			})
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("procs=%d: a lane event scheduled inside its own window", procs)
				}
			}()
			_ = sim.Run()
		}()
	}
}

// BenchmarkLaneWindows measures the loop's own cost per lane event —
// gather, hand-off, commit through a trivial owner — on GOMAXPROCS
// workers.
func BenchmarkLaneWindows(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		st := newStorm(20000)
		if err := st.sim.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// spinSink keeps the benchmark's lone spinning from being compiled away.
var spinSink uint64

// spin is the benchmark's stand-in for an event's work: a dependent chain
// the compiler cannot shorten, on the lane's own word.
func spin(x uint64, iters int) uint64 {
	for i := 0; i < iters; i++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	return x
}

// BenchmarkWindowHandoff fires windows of 512 events on 64 lanes — a
// delivery round's shape — under the hand-off rule, at several weights
// (the sub-benchmark's name is a window's nominal inline work), all in one
// Run: between two windows Run's goroutine works alone for 300 µs, as it
// does between a simulation's busy windows, so that the workers are found
// parked. It reports a window's wall time, how long a summoned worker took
// to arrive in the windows it took over, and the share of windows handed
// off.
func BenchmarkWindowHandoff(b *testing.B) {
	const lanes, perLane = 64, 8
	start := time.Now()
	spinSink = spin(1, 1<<22)
	perIter := float64(time.Since(start)) / (1 << 22)
	alone := int(float64(300*time.Microsecond) / perIter)
	quantile := func(d []time.Duration, q float64) float64 {
		slices.Sort(d)
		return float64(d[int(q*float64(len(d)-1))].Nanoseconds()) / 1e3
	}
	for _, window := range []time.Duration{125, 250, 500, 1000, 2000} {
		window *= time.Microsecond
		iters := int(float64(window/(lanes*perLane)) / perIter)
		b.Run(window.String(), func(b *testing.B) {
			sim := New()
			owner := newLogLanes(sim, lanes)
			var words [lanes]struct {
				x uint64
				_ [56]byte
			}
			fns := make([]func(), lanes)
			for l := range fns {
				fns[l] = func() {
					words[l].x = spin(words[l].x, iters)
					owner.do(l, func() {})
				}
			}
			var (
				spans, arrivals []time.Duration
				began           time.Time
				handed          uint64
				between         func()
			)
			// between closes the window before it and schedules the next.
			between = func() {
				if !began.IsZero() {
					spans = append(spans, time.Since(began))
					if c := sim.LaneCounts(); c.HandedOff > handed {
						handed = c.HandedOff
						arrivals = append(arrivals, time.Duration(sim.workers[0].arrivedAt.Load())-sim.summonedAt)
					}
				}
				if len(spans) == b.N {
					return
				}
				spinSink = spin(spinSink, alone)
				base := sim.Now() + 1
				for j := 0; j < perLane; j++ {
					for l, fn := range fns {
						sim.ScheduleLane(l, base+time.Duration(j*lanes+l), fn)
					}
				}
				sim.Schedule(sim.Now()+2*testLookahead, between)
				began = time.Now()
			}
			sim.Schedule(0, between)
			b.ResetTimer()
			if err := sim.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(quantile(spans, 0.5), "p50-µs/window")
			b.ReportMetric(quantile(spans, 0.9), "p90-µs/window")
			if len(arrivals) > 0 {
				b.ReportMetric(quantile(arrivals, 0.5), "p50-µs-to-arrive")
				b.ReportMetric(quantile(arrivals, 0.9), "p90-µs-to-arrive")
			}
			b.ReportMetric(100*float64(handed)/float64(len(spans)), "%-handed-off")
		})
	}
}
