package vclock

import (
	"sync/atomic"
	"time"

	"sgxp2p/internal/hosttime"
)

// Lanes is implemented by the owner of the state that events of different
// lanes share — for a simulated network, the network (internal/simnet).
// By registering with SetLanes the owner promises a lookahead: a lane
// event firing at time t causes no event before t+lookahead, on its own
// lane or any other. Run can then fire the lanes of a window
// [t0, t0+lookahead) side by side, because nothing one of them does can
// reach another inside the window, provided the owner holds back every
// effect on shared state — scheduling included — until Commit.
//
// BeginWindow, Commit and EndWindow run on Run's goroutine while the
// workers park; Claim and EndEvent run on the worker firing the lane and
// may touch that lane's state only. Every window starts inline: its events
// fire on Run's goroutine in (time, sequence) order and act on shared state
// directly. A window that stays inline to its end — too light to hand off,
// one lane, or a pool of one — calls none of the methods. A window handed
// off part-way calls them for the events not yet fired: the inline prefix
// has acted already and has nothing to commit, and a lane with events on
// both sides of the split is claimed at its first unfired event.
type Lanes interface {
	// BeginWindow announces a window about to fire on the given number of
	// workers, numbered from 0.
	BeginWindow(workers int)
	// Claim tells the owner which worker fires the lane's events of this
	// window.
	Claim(worker, lane int)
	// EndEvent closes the record of what one event of the lane did.
	EndEvent(lane int)
	// Commit applies what the lane's next uncommitted event did. It is
	// called once per event of the window in (time, sequence) order, with
	// Now at the event's time, so sequence numbers, and whatever else the
	// owner draws in order, come out as they would had the events fired
	// one by one.
	Commit(lane int)
	// EndWindow follows the window's last Commit.
	EndWindow()
}

// handoffBreakEven is the inline time a window must still have ahead of
// it — the pace of its last few events times the events unfired — for the
// rest of it to go to the workers. The workers park between windows, and a
// parked worker is slow to start: 64–256 µs pass on the 2-vCPU benchmark
// host before the first one claims a lane (the scheduler is in no hurry to
// steal the goroutine Run just woke, and the idle CPU has to be woken too),
// and what it fires is committed a second time through the owner's log.
// BenchmarkWindowHandoff, one 64-lane window inline against handed off
// whole (median µs, three runs): 122–125 against 140–157 at 125 µs of work,
// 242–258 against 229–261 at 250 µs, 472–512 against 351–361 at 500 µs,
// 929–1013 against 592–634 at 1 ms — a break-even near 250 µs when the
// second CPU is there to be had. It is not always: in one run of the three
// no worker arrived inside a millisecond (the hand-off then costs 15–35 µs).
// So the repository benchmark decides (go run
// ./bench, 5 s windows, break-even 300 / 600 / 1000 / 1500 / 2000 µs
// against the event-count rule this one replaced): erb_mux ops_per_s
// +24 / +29 / +25 / +19 / +20 %; erb_serial +13 / +5 / +4 / −7 / −11 %
// (from 1500 µs its 500-event delivery windows stay inline, which the
// count rule handed off); erng_basic ops_per_cpu_s −25 / −26 / −1 to −8 /
// 0 / 0 % with ops_per_s unmoved at every value. 1 ms is the value with no
// loser.
//
// The second CPU is a whole one — lscpu reports 2 cores × 1 thread, and two
// single-threaded passes side by side each keep their solo rate
// (BenchmarkClusterBroadcast -cpu 1: 3.56–3.71 ms alone, 3.54 and 3.68 ms
// together; an earlier note here had the two vCPUs share a core) — yet one
// simulator gains little from it. go test -run=NONE -bench
// 'ClusterBroadcast|ClusterRandom|FirstEmission' -cpu 1,2 -benchtime=2s
// -count=3 . reads, -cpu 1 against -cpu 2 (PR 24): ClusterBroadcast
// 3.34–3.54 against 3.67–5.87 ms, ClusterBroadcastMany 12.2–14.1 against
// 13.8–14.7 ms, ClusterRandom 0.81–0.90 against 0.77–0.91 ms, and only
// FirstEmission (a cluster's cold key agreements) 476–482 against 251–290
// ms. That is input for the re-sweep ROADMAP item 7 asks for; the value
// below is from before it.
//
// A variable only for the tests, which set it to 0 (hand off at the first
// check) or past any window's length (never).
var handoffBreakEven = 1000 * time.Microsecond

// SetHandoffBreakEven is for the tests of packages that drive a Sim: they
// have to reach the workers, or stay off them, whatever the host's speed.
// It sets handoffBreakEven and returns the function that puts it back.
func SetHandoffBreakEven(d time.Duration) (restore func()) {
	prev := handoffBreakEven
	handoffBreakEven = d
	return func() { handoffBreakEven = prev }
}

// paceCheckEvery is how many events fire inline between two reads of the
// wall clock once a window's first few events — each of them a check — say
// it is light: a read costs ≈ 35 ns, a light event ≈ 1 µs, and a window
// that turns heavy part-way (late ACKs, then the round's ticks) is caught
// within that many events.
const paceCheckEvery = 8

// paceSampleTime is the shortest stretch of fewer than paceCheckEvery
// events whose pace is believed: one event that missed the cache must not
// send a window of two hundred light ones to the workers, and two round
// ticks of 63 seals each are enough to send the other 62.
const paceSampleTime = 40 * time.Microsecond

// running counts the Runs in flight in this process. Simulators running
// side by side — a sweep runs one per core — share the cores, so each
// sizes its pool as its share of GOMAXPROCS: a worker with no core to run
// on only adds its start-up cost. What a run computes does not depend on
// the pool's size.
var running atomic.Int32

// laneState is one lane's share of the window being fired, padded to a
// cache line because neighbouring lanes fire on different workers.
type laneState struct {
	events []entry // this window's events, in (time, sequence) order
	next   int     // first event neither fired inline nor committed
	now    time.Duration
	_      [24]byte
}

// SetLanes registers the owner of the lane events' shared state and the
// lookahead it promises. A nil owner or a lookahead of zero — the
// default — makes every event fire alone.
func (s *Sim) SetLanes(owner Lanes, lookahead time.Duration) {
	if owner == nil {
		lookahead = 0
	}
	s.owner, s.lookahead = owner, lookahead
}

// ScheduleLane is Schedule for an event that belongs to a lane: fn reads
// and writes the state of that lane only, under the contract of Lanes.
func (s *Sim) ScheduleLane(lane int, t time.Duration, fn func()) {
	if lane < 0 || lane >= 1<<laneBits-1 {
		panic("vclock: lane out of range")
	}
	for lane >= len(s.lanes) {
		s.lanes = append(s.lanes, laneState{})
	}
	s.push(t, fn, uint64(lane)+1)
}

// LaneNow is Now as an event of the lane sees it: the time of the lane's
// firing event while a window is fired on the workers, Now otherwise. It
// is the one method a lane event may call.
func (s *Sim) LaneNow(lane int) time.Duration {
	if s.parallel {
		return s.lanes[lane].now
	}
	return s.now
}

// ParallelWindows returns how many windows were fired on more than one
// worker so far. Which windows are is a property of the host, not of the
// simulation: nothing a simulation computes depends on it.
func (s *Sim) ParallelWindows() uint64 { return s.counts.HandedOff }

// LaneCounts says what the hand-off rule did with the windows of lane
// events fired so far. Like ParallelWindows it describes the host.
type LaneCounts struct {
	Inline       uint64 // windows fired on Run's goroutine to their end
	HandedOff    uint64 // windows whose remainder went to the workers
	WorkerEvents uint64 // events of those remainders
}

// LaneCounts returns the counts so far.
func (s *Sim) LaneCounts() LaneCounts { return s.counts }

// fireWindow pops every lane event in [head.at, head.at+lookahead) — up
// to the first untagged event, which is a barrier, and the deadline — and
// fires them, each lane's in order. It starts right here, in (time,
// sequence) order, and reads the wall clock as it goes; once the events
// still unfired would take longer at the pace of the last few than a
// hand-off costs (handoffBreakEven) and span two lanes or more, the workers
// fire the rest and the loop commits it. Only the pace is measured, so
// only the host decides where a window splits; the lookahead argument
// holds for any suffix of a window — nothing the prefix scheduled lands
// before the window's end (push panics otherwise) — so what the window
// computes is the same wherever it does.
func (s *Sim) fireWindow(head *entry) {
	end := head.at + s.lookahead
	if s.limit > 0 && end > s.limit {
		end = s.limit + 1
	}
	for head != nil && head.laneTag() != 0 && head.at < end {
		li := int32(head.laneTag() - 1)
		ln := &s.lanes[li]
		if len(ln.events) == 0 {
			s.active = append(s.active, li)
		}
		ln.events = append(ln.events, s.queue.popKnownHead(head))
		s.order = append(s.order, li)
		head = s.queue.peek()
	}
	s.windowEnd = end

	pool := 1
	if len(s.active) > 1 {
		pool = max(1, s.procs/int(running.Load()))
	}
	var (
		last  time.Duration // host time of the last pace sample
		lastI int           // its index
		check = -1          // index of the next pace check; none on a pool of one
	)
	if pool > 1 {
		last, check = hosttime.Now(), 0
	}
	onWorkers := false
	for i, li := range s.order {
		if i == check {
			if check++; i >= paceCheckEvery {
				check = i + paceCheckEvery
			}
			var ahead time.Duration
			if i > 0 {
				now := hosttime.Now()
				if n, dt := i-lastI, now-last; n >= paceCheckEvery || dt >= paceSampleTime {
					ahead = dt / time.Duration(n) * time.Duration(len(s.order)-i)
					last, lastI = now, i
				}
			}
			if ahead >= handoffBreakEven {
				check = -1 // the rest goes to the workers, or is all on one lane
				if workers := s.unfiredLanes(pool); workers > 1 {
					s.counts.WorkerEvents += uint64(len(s.order) - i)
					s.fireOnWorkers(workers)
					onWorkers = true
				}
			}
		}
		ln := &s.lanes[li]
		en := &ln.events[ln.next]
		ln.next++
		s.now = en.at
		s.traceFire(en.at, en.number())
		if onWorkers {
			s.owner.Commit(int(li))
		} else {
			en.fn()
		}
	}
	if onWorkers {
		s.owner.EndWindow()
	} else {
		s.counts.Inline++
	}
	s.windowEnd = 0
	for _, li := range s.active {
		ln := &s.lanes[li]
		ln.events, ln.next = ln.events[:0], 0
	}
	s.order, s.active = s.order[:0], s.active[:0]
}

// unfiredLanes counts the window's lanes with an event still to fire, up
// to limit.
func (s *Sim) unfiredLanes(limit int) int {
	n := 0
	for _, li := range s.active {
		if ln := &s.lanes[li]; ln.next < len(ln.events) {
			if n++; n == limit {
				break
			}
		}
	}
	return n
}

// fireOnWorkers fires what is left of the gathered window's lanes on the
// given number of workers, Run's goroutine being worker 0 — it fires lanes
// while the parked ones start — and returns when all have fired.
func (s *Sim) fireOnWorkers(workers int) {
	s.counts.HandedOff++
	s.owner.BeginWindow(workers)
	for len(s.wake) < workers-1 {
		// Buffered so that Run's goroutine never waits for a worker to
		// park before it starts on its own share.
		wake := make(chan struct{}, 1)
		s.wake = append(s.wake, wake)
		s.exitWG.Add(1)
		go s.worker(len(s.wake), wake)
	}
	s.parallel = true
	s.claim.Store(0)
	s.windowWG.Add(workers - 1)
	for _, wake := range s.wake[:workers-1] {
		wake <- struct{}{}
	}
	s.fireLanes(0)
	s.windowWG.Wait()
	s.parallel = false
}

// worker fires its share of every window it is woken for, parked in
// between, until stopWorkers closes its channel.
func (s *Sim) worker(w int, wake <-chan struct{}) {
	defer s.exitWG.Done()
	for range wake {
		s.fireLanes(w)
		s.windowWG.Done()
	}
}

// fireLanes claims lanes of the window until none is left and fires each
// one's unfired events in order. Claiming one lane at a time balances a
// window whose lanes differ in weight — a node ticking a multicast next to
// nodes taking one delivery each.
func (s *Sim) fireLanes(w int) {
	for {
		i := int(s.claim.Add(1)) - 1
		if i >= len(s.active) {
			return
		}
		li := int(s.active[i])
		ln := &s.lanes[li]
		if ln.next == len(ln.events) {
			continue // fired to its end before the hand-off
		}
		s.owner.Claim(w, li)
		for k := ln.next; k < len(ln.events); k++ {
			ln.now = ln.events[k].at
			ln.events[k].fn()
			s.owner.EndEvent(li)
		}
	}
}

// stopWorkers ends the workers Run started and waits for them to return.
func (s *Sim) stopWorkers() {
	for _, wake := range s.wake {
		close(wake)
	}
	s.wake = s.wake[:0]
	s.exitWG.Wait()
}
