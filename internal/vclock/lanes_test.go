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

// never is a break-even no window reaches: every window fires inline.
const never = time.Duration(1 << 62)

// setBreakEven sets the hand-off break-even for the rest of the test: 0
// hands every window with two lanes or more to the workers before its
// first event, never keeps every window inline.
func setBreakEven(t testing.TB, d time.Duration) {
	t.Helper()
	t.Cleanup(SetHandoffBreakEven(d))
}

// logLanes is the smallest honest Lanes owner: a lane event reaches shared
// state only through do, which runs the closure at once when events fire
// one by one and holds it back until the event commits when a window
// fires on workers.
//
// With splitAfter set it also forces where windows split: the break-even
// drops to 0 once that many events have fired inline since the last
// hand-off, so the next pace check hands the rest of the window off, and
// goes back to never when that window ends. splits journals how many had
// fired inline at each hand-off.
type logLanes struct {
	sim        *Sim
	windowed   bool
	lanes      []logLane
	splitAfter int // 0: leave the break-even alone
	inline     int
	splits     []int
}

type logLane struct {
	log  []func() // nil ends one event's closures
	next int
	_    [32]byte
}

func newLogLanes(sim *Sim, lanes int) *logLanes {
	o := &logLanes{sim: sim, lanes: make([]logLane, lanes)}
	sim.SetLanes(o, testLookahead)
	return o
}

func (o *logLanes) do(lane int, fn func()) {
	if !o.windowed {
		if o.inline++; o.inline == o.splitAfter {
			handoffBreakEven = 0
		}
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
	o.windowed = false
	if o.inline = 0; o.splitAfter > 0 {
		handoffBreakEven = never
	}
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

// TestLaneWindowsMatchSerialLoop runs the storm on a pool of one and on a
// pool of four: everything observable must be identical.
func TestLaneWindowsMatchSerialLoop(t *testing.T) {
	setBreakEven(t, 0)
	run := func(procs int) *storm {
		setProcs(t, procs)
		st := newStorm(20000)
		before := runtime.NumGoroutine()
		if err := st.sim.Run(); err != nil {
			t.Fatal(err)
		}
		// Run's workers have returned (stopWorkers waits for them); give
		// the runtime a moment to retire the goroutines it counts.
		for i := 0; i < 1000 && runtime.NumGoroutine() > before; i++ {
			runtime.Gosched()
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("procs=%d: %d goroutines before Run, %d after", procs, before, after)
		}
		return st
	}
	serial, parallel := run(1), run(4)
	if serial.sim.ParallelWindows() != 0 {
		t.Errorf("pool of one fired %d windows on workers", serial.sim.ParallelWindows())
	}
	if parallel.sim.ParallelWindows() == 0 {
		t.Fatal("pool of four fired no window on workers: the test compares nothing")
	}
	if s, p := serial.sim.TraceHash(), parallel.sim.TraceHash(); s != p {
		t.Errorf("trace hash %x on one worker, %x on four", s, p)
	}
	if s, p := serial.sim.FiredCount(), parallel.sim.FiredCount(); s != p || s != 20000+8*stormLanes {
		t.Errorf("fired %d on one worker, %d on four, want %d", s, p, 20000+8*stormLanes)
	}
	if s, p := serial.sim.Now(), parallel.sim.Now(); s != p {
		t.Errorf("clock ends at %v on one worker, %v on four", s, p)
	}
	if !reflect.DeepEqual(serial.shared, parallel.shared) {
		t.Error("shared journals differ: events committed in different orders")
	}
	if !reflect.DeepEqual(serial.perLan, parallel.perLan) {
		t.Error("lane journals differ: a lane's events fired out of order or read a different clock")
	}
}

// TestHandoffAtAnyIndexMatchesSerial splits windows everywhere a window can
// split: the storm runs with the hand-off forced after k inline events for
// every k of its first window — before the first event, with one event
// left, and wherever in between a lane has events on both sides — and must
// come out as it does on one goroutine. The later windows split wherever
// the count since the last hand-off reaches k again.
func TestHandoffAtAnyIndexMatchesSerial(t *testing.T) {
	for _, shape := range []struct{ lanes, perLane int }{{3, 3}, {8, 4}} {
		first := shape.lanes * shape.perLane // events of the first window
		run := func(k int) *storm {
			st := newStormOf(shape.lanes, shape.perLane, 3000)
			switch {
			case k < 0:
				setBreakEven(t, never)
			case k == 0:
				setBreakEven(t, 0)
			default:
				setBreakEven(t, never)
				st.owner.splitAfter = k
			}
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
				// Every index up to paceCheckEvery is a pace check, so there
				// the first window splits exactly at k — if two lanes are left.
				left := map[int]bool{}
				for _, ev := range serial.shared[k:first] {
					left[ev.lane] = true
				}
				if procs > 1 && k <= paceCheckEvery && len(left) > 1 {
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

// TestUntaggedEventIsBarrier puts an untagged event in the middle of what
// would be one window: the lane events before it fire (and commit) before
// it runs, the ones after it after.
func TestUntaggedEventIsBarrier(t *testing.T) {
	// Events this light never look worth a hand-off to the measured rule.
	setBreakEven(t, 0)
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		sim := New()
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
	setBreakEven(t, 0)
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		const events = 8 * stormLanes
		build := func() (*Sim, *int) {
			sim := New()
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
	setBreakEven(t, 0)
	setProcs(t, 4)
	st := newStorm(2000)
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
	setBreakEven(t, 0)
	for _, procs := range []int{1, 4} {
		setProcs(t, procs)
		sim := New()
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

// BenchmarkWindowHandoff times one window of 64 events on 64 lanes — a
// round tick's shape — fired inline and handed to the workers before its
// first event, at several window weights (the sub-benchmark's name is the
// whole window's nominal inline work). Between windows Run's goroutine
// works alone for a while, as it does between a simulation's heavy
// windows, so that the workers are found parked. Where the two columns
// meet is the break-even that handoffBreakEven's comment cites.
func BenchmarkWindowHandoff(b *testing.B) {
	const events = 64
	start := time.Now()
	spinSink = spin(1, 1<<22)
	perIter := float64(time.Since(start)) / (1 << 22)
	alone := int(float64(300*time.Microsecond) / perIter)
	for _, window := range []time.Duration{125, 250, 500, 1000, 2000, 4000} {
		window *= time.Microsecond
		iters := int(float64(window/events) / perIter)
		for _, mode := range []struct {
			name      string
			breakEven time.Duration
		}{{"inline", never}, {"handoff", 0}} {
			b.Run(window.String()+"/"+mode.name, func(b *testing.B) {
				setBreakEven(b, mode.breakEven)
				sim := New()
				owner := newLogLanes(sim, events)
				var words [events]struct {
					x uint64
					_ [56]byte
				}
				spans := make([]time.Duration, 0, b.N)
				for i := 0; i < b.N; i++ {
					spinSink = spin(spinSink, alone)
					began := time.Now()
					base := sim.Now() + testLookahead
					for l := 0; l < events; l++ {
						sim.ScheduleLane(l, base+time.Duration(l), func() {
							words[l].x = spin(words[l].x, iters)
							owner.do(l, func() {})
						})
					}
					if err := sim.Run(); err != nil {
						b.Fatal(err)
					}
					spans = append(spans, time.Since(began))
				}
				slices.Sort(spans)
				b.ReportMetric(float64(spans[len(spans)/2].Nanoseconds())/1e3, "p50-µs/window")
				b.ReportMetric(float64(spans[len(spans)*9/10].Nanoseconds())/1e3, "p90-µs/window")
			})
		}
	}
}
