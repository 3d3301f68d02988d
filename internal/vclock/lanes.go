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
// BeginWindow, Commit and EndWindow run on Run's goroutine while no worker
// fires; Claim and EndEvent run on the worker firing the lane and may
// touch that lane's state only. Every window starts inline: its events
// fire on Run's goroutine in (time, sequence) order and act on shared
// state directly. A window that stays inline to its end — no worker
// arrived in time, one lane, or a pool of one — calls none of the methods.
// A window handed off part-way calls them for the events not yet fired:
// the inline prefix has acted already and has nothing to commit, and a
// lane with events on both sides of the split is claimed at its first
// unfired event.
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

// paceCheckEvery is how many events fire inline between two reads of the
// wall clock once a window's first few events — each of them a check — say
// it is light: a read costs ≈ 35 ns, a light event ≈ 1 µs.
const paceCheckEvery = 8

// paceSampleTime is the shortest stretch of fewer than paceCheckEvery
// events whose pace is believed: one event that missed the cache must not
// summon a worker for a window of light ones.
const paceSampleTime = 40 * time.Microsecond

// probeEvery is how often a window that would summon does so while
// hand-offs save nothing: one in probeEvery, so that the measured saving
// follows the host when it changes.
const probeEvery = 16

// running counts the Runs in flight in this process. Simulators running
// side by side — a sweep runs one per core — share the cores, so each
// sizes its pool as its share of GOMAXPROCS: a worker with no core to run
// on only adds its start-up cost. What a run computes does not depend on
// the pool's size.
var running atomic.Int32

// ArriveAt is for tests that must reach the workers, at a split point of
// their choosing, whatever the host's speed. With k ≥ 0, every later
// window of a pool of more than one summons its workers before its first
// event, Run's goroutine waits at event k (counting from 0) for one to
// arrive and hands it the remainder unless that is on one lane, and a
// window of k events or fewer cancels the summon at its end. A k below 0
// gives the decision back to the host.
func (s *Sim) ArriveAt(k int) { s.arriveAt = max(k+1, 0) }

// laneState is one lane's share of the window being fired, padded to a
// cache line because neighbouring lanes fire on different workers.
type laneState struct {
	events []entry // this window's events, in (time, sequence) order
	next   int     // first event neither fired inline nor committed
	now    time.Duration
	_      [24]byte
}

// A worker's slot moves parked → summoned (Run's goroutine, with a token
// on wake) → arrived (the worker) → firing (Run's goroutine: the
// remainder is the worker's) → parked (the worker, when it has fired).
// Run's goroutine cancels a summon by taking summoned or arrived back to
// parked; a token left on wake then finds nothing to do.
const (
	parked int32 = iota
	summoned
	arrived
	firing
)

// workerSlot is how Run's goroutine and one worker meet.
type workerSlot struct {
	state     atomic.Int32
	arrivedAt atomic.Int64 // host time of the latest arrival
	stop      atomic.Bool  // set by stopWorkers: the next token ends the worker
	wake      chan struct{}
}

// handoffRule is what the simulator has measured of its own hand-offs, on
// this host, under this load.
type handoffRule struct {
	// arrival is the moving average of how long a summoned worker takes to
	// arrive: a window summons once the remainder's inline time is at
	// least this. 0 until the first summon.
	arrival time.Duration
	// saved is the moving average of the share of its inline time — at
	// the pace measured before the hand-off — a handed-off remainder saved.
	saved float64
	held  int // windows that would have summoned since the last probe
}

// sampleArrival folds one summon-to-arrival time into the average; for a
// worker cancelled on its way, d is how long it had been on its way, which
// says something only above the average. A sample counts for at most
// twice the average, so one scheduler hiccup does not stop summons for a
// hundred windows, while a host that turns slow doubles it in six.
func (r *handoffRule) sampleArrival(d time.Duration, onItsWay bool) {
	switch {
	case d <= 0 || onItsWay && d <= r.arrival:
	case r.arrival == 0:
		r.arrival = d
	default:
		r.arrival += (min(d, 2*r.arrival) - r.arrival) / 8
	}
}

// sampleSaving folds one hand-off into the average saving: its remainder
// would have taken ahead inline and took took. A share, not a duration, and
// a loss counts as at most the whole inline time: a window whose first
// events were light and whose rest was heavy — ahead at the pace of the
// first, took at that of the rest — must not outweigh the hundreds of
// hand-offs around it.
func (r *handoffRule) sampleSaving(ahead, took time.Duration) {
	share := max(float64(ahead-took)/float64(ahead), -1)
	r.saved += (share - r.saved) / 8
}

// summoning reports whether a window whose remainder outweighs the
// arrival latency summons: while hand-offs save time, every one; while
// they save nothing, one in probeEvery.
func (r *handoffRule) summoning() bool {
	if r.saved >= 0 {
		return true
	}
	if r.held++; r.held < probeEvery {
		return false
	}
	r.held = 0
	return true
}

// laneEvents is how many events of a window each of the lanes SetLanes
// announces holds before its slice grows: what a node takes in a window
// of a small cluster, so that a fresh deployment does not grow every
// lane's slice from empty.
const laneEvents = 8

// SetLanes registers the owner of the lane events' shared state, the
// number of lanes it expects and the lookahead it promises. A nil owner
// or a lookahead of zero — the default — makes every event fire alone.
// The expected lanes' window slices are carved from one array here;
// ScheduleLane adds a lane past them as its first event arrives.
func (s *Sim) SetLanes(owner Lanes, lanes int, lookahead time.Duration) {
	if owner == nil {
		lookahead = 0
	}
	s.owner, s.lookahead = owner, lookahead
	if have := len(s.lanes); lanes > have {
		events := make([]entry, (lanes-have)*laneEvents)
		for i := have; i < lanes; i++ {
			k := (i - have) * laneEvents
			s.lanes = append(s.lanes, laneState{events: events[k:k:(k + laneEvents)]})
		}
	}
}

// ScheduleLane is Schedule for an event that belongs to a lane: fn reads
// and writes the state of that lane only, under the contract of Lanes.
func (s *Sim) ScheduleLane(lane int, t time.Duration, fn func()) {
	if fn == nil {
		panic("vclock: nil event callback")
	}
	s.ScheduleLaneEvent(lane, t, funcEvent(fn))
}

// ScheduleLaneEvent is ScheduleLane for an Event.
func (s *Sim) ScheduleLaneEvent(lane int, t time.Duration, ev Event) {
	if lane < 0 || lane >= 1<<laneBits-1 {
		panic("vclock: lane out of range")
	}
	for lane >= len(s.lanes) {
		s.lanes = append(s.lanes, laneState{})
	}
	s.push(t, ev, uint64(lane)+1)
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
// events fired so far. Like ParallelWindows it describes the host. Every
// window is Inline or HandedOff, and every summon ends in a hand-off or
// is Cancelled inside its window.
type LaneCounts struct {
	Inline       uint64 // windows fired on Run's goroutine to their end
	HandedOff    uint64 // windows whose remainder went to the workers
	WorkerEvents uint64 // events of those remainders
	Summoned     uint64 // windows that summoned workers
	Cancelled    uint64 // of those, windows that ended, or had one lane left, before a worker arrived
	// Arrival is the measured summon-to-arrival latency: the inline time
	// a window's remainder must have for the next window to summon.
	Arrival time.Duration
}

// LaneCounts returns the counts so far.
func (s *Sim) LaneCounts() LaneCounts {
	c := s.counts
	c.Arrival = s.rule.arrival
	return c
}

// fireWindow pops every lane event in [head.at, head.at+lookahead) — up
// to the first untagged event, which is a barrier, and the deadline — and
// fires them, each lane's in order. It starts right here, in (time,
// sequence) order, and reads the wall clock as it goes; once the events
// still unfired would take longer at the pace of the last few than a
// worker takes to arrive, and span two lanes or more, it summons the
// workers and keeps firing. At the first event boundary after one
// arrives the workers fire the rest and the loop commits it; a window
// that ends first cancels the summon. Only the host's timing decides
// where a window splits; the lookahead argument holds for any suffix of a
// window — nothing the prefix scheduled lands before the window's end
// (push panics otherwise) — so what the window computes is the same
// wherever it does.
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
		last   time.Duration // host time of the last pace sample
		lastI  int           // its index
		pace   time.Duration // host time per event over the last sample
		check  = -1          // index of the next pace check; none on a pool of one
		handed time.Duration // host time of the hand-off
		ahead  time.Duration // the remainder's inline time then, at that pace
	)
	if pool > 1 {
		last, check = hosttime.Now(), 0
		if s.arriveAt > 0 {
			s.summon(s.unfiredLanes(pool) - 1)
			check = -1
		}
	}
	onWorkers := false
	for i, li := range s.order {
		if s.summoned > 0 && s.arrivedBy(i) {
			if s.unfiredLanes(2) == 2 {
				handed, ahead = hosttime.Now(), pace*time.Duration(len(s.order)-i)
				s.counts.WorkerEvents += uint64(len(s.order) - i)
				s.handOff()
				onWorkers = true
			} else {
				s.cancel()
			}
		}
		if i == check {
			if check++; i >= paceCheckEvery {
				check = i + paceCheckEvery
			}
			if i > 0 {
				now := hosttime.Now()
				if n, dt := i-lastI, now-last; n >= paceCheckEvery || dt >= paceSampleTime {
					pace = dt / time.Duration(n)
					last, lastI = now, i
				}
			}
			if pace > 0 && pace*time.Duration(len(s.order)-i) >= s.rule.arrival {
				check = -1 // one decision a window
				if workers := s.unfiredLanes(pool); workers > 1 && s.rule.summoning() {
					s.summon(workers - 1)
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
			en.ev.Fire()
		}
	}
	if onWorkers {
		s.owner.EndWindow()
		if ahead > 0 {
			s.rule.sampleSaving(ahead, hosttime.Now()-handed)
		}
	} else {
		if s.summoned > 0 {
			s.cancel()
		}
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

// summon wakes workers 1..n for the window being fired, starting those
// this Run has not started yet, and returns at once.
func (s *Sim) summon(n int) {
	for ; s.live < n; s.live++ {
		if s.live == len(s.workers) {
			s.workers = append(s.workers, &workerSlot{wake: make(chan struct{}, 1)})
		}
		s.exitWG.Add(1)
		go s.worker(s.live+1, s.workers[s.live])
	}
	s.counts.Summoned++
	s.summoned, s.summonedAt = n, hosttime.Now()
	for _, ws := range s.workers[:n] {
		ws.state.Store(summoned)
		select {
		case ws.wake <- struct{}{}:
		default: // a cancelled summon's token is still there: it will do
		}
	}
}

// arrivedBy reports whether a summoned worker is there to take the
// window's events from event i on. Under ArriveAt it is there at the set
// event, once it has arrived, and nowhere else.
func (s *Sim) arrivedBy(i int) bool {
	if s.arriveAt > 0 && i != s.arriveAt-1 {
		return false
	}
	for {
		for _, ws := range s.workers[:s.summoned] {
			if ws.state.Load() == arrived {
				return true
			}
		}
		if s.arriveAt == 0 {
			return false
		}
		osYield()
	}
}

// handOff fires what is left of the gathered window's lanes on Run's
// goroutine — worker 0 — and on the summoned workers that have arrived,
// cancels the others, and returns when all have fired.
func (s *Sim) handOff() {
	s.counts.HandedOff++
	s.owner.BeginWindow(s.summoned + 1)
	s.parallel = true
	s.claim.Store(0)
	s.resolve(true)
	s.fireLanes(0)
	s.windowWG.Wait()
	s.parallel = false
}

// cancel sends the summoned workers back without a share.
func (s *Sim) cancel() {
	s.counts.Cancelled++
	s.resolve(false)
}

// resolve ends the window's summon. A worker that has not arrived is
// cancelled on its way; one that has fires the remainder if fire is set
// and is sent back otherwise. Either way its time since the summon is a
// sample of the arrival latency.
func (s *Sim) resolve(fire bool) {
	now := hosttime.Now()
	for _, ws := range s.workers[:s.summoned] {
		if ws.state.CompareAndSwap(summoned, parked) {
			s.rule.sampleArrival(now-s.summonedAt, true)
			continue
		}
		s.rule.sampleArrival(time.Duration(ws.arrivedAt.Load())-s.summonedAt, false)
		if fire {
			s.windowWG.Add(1)
			ws.state.Store(firing)
		} else {
			ws.state.Store(parked)
		}
	}
	s.summoned = 0
}

// worker answers every summon it is woken for until stopWorkers stops it.
func (s *Sim) worker(w int, ws *workerSlot) {
	defer s.exitWG.Done()
	for range ws.wake {
		if ws.stop.Load() {
			return
		}
		s.attend(w, ws)
	}
}

// attend arrives, waits for Run's goroutine to hand it the remainder or
// send it back — which it does at its next event boundary — fires its
// share if handed one, and returns once its slot is parked again.
func (s *Sim) attend(w int, ws *workerSlot) {
	for {
		switch ws.state.Load() {
		case parked:
			return
		case summoned:
			ws.arrivedAt.Store(int64(hosttime.Now()))
			ws.state.CompareAndSwap(summoned, arrived) // fails only to a cancel
		case arrived:
			osYield()
		case firing:
			s.fireLanes(w)
			ws.state.Store(parked)
			s.windowWG.Done()
		}
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
			ln.events[k].ev.Fire()
			s.owner.EndEvent(li)
		}
	}
}

// stopWorkers ends the workers Run started and waits for them to return;
// their slots serve the next Run's. A window cut short by a panic may have
// left a summon open: such slots are parked first, so no worker waits for
// a verdict that will not come.
func (s *Sim) stopWorkers() {
	for _, ws := range s.workers[:s.live] {
		ws.state.CompareAndSwap(summoned, parked)
		ws.state.CompareAndSwap(arrived, parked)
		ws.stop.Store(true)
		select {
		case ws.wake <- struct{}{}:
		default: // the token waiting there is taken after the store
		}
	}
	s.exitWG.Wait()
	for _, ws := range s.workers[:s.live] {
		ws.stop.Store(false) // a token left on wake finds a parked slot
	}
	s.live, s.summoned = 0, 0
}
