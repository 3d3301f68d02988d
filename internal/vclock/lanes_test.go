package vclock

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
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
// fires on workers.
type logLanes struct {
	sim      *Sim
	windowed bool
	lanes    []logLane
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
		fn()
		return
	}
	o.lanes[lane].log = append(o.lanes[lane].log, fn)
}

func (o *logLanes) BeginWindow(int) { o.windowed = true }
func (o *logLanes) Claim(int, int)  {}
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

func newStorm(budget int) *storm {
	sim := New()
	sim.SetHorizon(10 * testLookahead)
	st := &storm{
		sim:    sim,
		owner:  newLogLanes(sim, stormLanes),
		rng:    rand.New(rand.NewSource(7)),
		budget: budget,
		perLan: make([][]fired, stormLanes),
	}
	// Eight events per lane inside the first window: 512 events, well
	// past minParallelEvents, and each spawns one successor.
	for lane := 0; lane < stormLanes; lane++ {
		for k := 0; k < 8; k++ {
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
		next := (lane*7 + ev.k + 1) % stormLanes
		st.schedule(next, st.sim.Now()+testLookahead+time.Duration(st.rng.Int63n(int64(testLookahead))))
	})
}

// TestLaneWindowsMatchSerialLoop runs the storm on a pool of one and on a
// pool of four: everything observable must be identical.
func TestLaneWindowsMatchSerialLoop(t *testing.T) {
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

// TestUntaggedEventIsBarrier puts an untagged event in the middle of what
// would be one window: the lane events before it fire (and commit) before
// it runs, the ones after it after.
func TestUntaggedEventIsBarrier(t *testing.T) {
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
// drivers keep working on a simulator whose Run used workers: lane events
// fire inline, act directly, and LaneNow follows the clock.
func TestStepAndRunUntilAfterParallelRun(t *testing.T) {
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
	if !st.sim.Step() || len(saw) != 1 || saw[0] != base+1 {
		t.Fatalf("Step fired %v, want the event at %v", saw, base+1)
	}
	st.sim.RunUntil(base + 3)
	if want := []time.Duration{base + 1, base + 2, base + 3}; !reflect.DeepEqual(saw, want) || st.sim.Pending() != 1 {
		t.Fatalf("RunUntil fired %v (pending %d), want %v and one pending", saw, st.sim.Pending(), want)
	}
	if st.sim.ParallelWindows() != windows {
		t.Error("Step or RunUntil fired a window on workers")
	}
}

// TestLaneTimerShorterThanLookaheadRejected checks the promise Run relies
// on is enforced, not assumed: an event a lane schedules inside the
// window being fired panics, on one worker and on four alike.
func TestLaneTimerShorterThanLookaheadRejected(t *testing.T) {
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
