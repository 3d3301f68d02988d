package vclock

import "time"

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
// may touch that lane's state only. A window fired inline — too light to
// hand off, or a pool of one — calls none of them: its events fire on
// Run's goroutine in (time, sequence) order and act on shared state
// directly.
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

// minParallelEvents is the size below which a window fires inline. The
// workers park between windows, and a parked worker is slow to start:
// around 100 µs passed on the 2-vCPU benchmark host before the first
// worker claimed a lane (the scheduler is in no hurry to steal the
// goroutine Run just woke, and the idle CPU has to be woken too). A
// window has to hold a few hundred µs of work to earn that back. The
// event count is what the loop can see of a window's weight before firing
// it; at the ≈ 1 µs a delivery costs, windows of 128-255 events measured
// slower on two workers than inline (152 vs 139 µs) and windows of
// 256-511 faster (319 vs 408 µs).
const minParallelEvents = 256

// laneState is one lane's share of the window being fired, padded to a
// cache line because neighbouring lanes fire on different workers.
type laneState struct {
	events []entry // this window's events, in (time, sequence) order
	next   int     // first uncommitted event
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
	if fn == nil {
		panic("vclock: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	if lane < 0 || lane >= 1<<laneBits-1 {
		panic("vclock: lane out of range")
	}
	for lane >= len(s.lanes) {
		s.lanes = append(s.lanes, laneState{})
	}
	s.push(entry{at: t, fn: fn}, uint64(lane)+1)
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
func (s *Sim) ParallelWindows() uint64 { return s.nPar }

// fireWindow pops every lane event in [head.at, head.at+lookahead) — up
// to the first untagged event, which is a barrier, and the deadline — and
// fires them, each lane's in order: on the workers when the window is
// heavy enough to hand off, else right here.
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
		head = s.livePeek()
	}
	s.windowEnd = end
	// One loop either way: on workers the events have fired by the time it
	// runs and it commits what they held back; inline it fires them.
	workers := min(len(s.active), s.procs)
	onWorkers := workers > 1 && len(s.order) >= minParallelEvents
	if onWorkers {
		s.fireOnWorkers(workers)
	}
	for _, li := range s.order {
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
	}
	s.windowEnd = 0
	for _, li := range s.active {
		ln := &s.lanes[li]
		ln.events, ln.next = ln.events[:0], 0
	}
	s.order, s.active = s.order[:0], s.active[:0]
}

// fireOnWorkers fires the gathered window's lanes on the given number of
// workers, Run's goroutine being worker 0, and returns when all have
// fired.
func (s *Sim) fireOnWorkers(workers int) {
	s.nPar++
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
// one's events in order. Claiming one lane at a time balances a window
// whose lanes differ in weight — a node ticking a multicast next to nodes
// taking one delivery each.
func (s *Sim) fireLanes(w int) {
	for {
		i := int(s.claim.Add(1)) - 1
		if i >= len(s.active) {
			return
		}
		li := int(s.active[i])
		s.owner.Claim(w, li)
		ln := &s.lanes[li]
		for k := range ln.events {
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
