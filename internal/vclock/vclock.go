// Package vclock implements the discrete-event engine that drives the
// simulated synchronous network: a virtual clock and a time-ordered event
// queue. All simulated latencies, round boundaries and bandwidth queueing
// are expressed as events on this clock, so experiments that the paper ran
// in hundreds of wall-clock seconds replay in milliseconds while reporting
// the same virtual durations.
//
// The queue is tuned for simulations holding millions of in-flight
// events: entries carry their ordering key inline (no pointer chase in
// comparisons) and every scheduled event fires, so there is no handle to
// allocate and scheduling a delivery costs nothing beyond amortized queue
// growth. When the simulation owner hints its scheduling horizon
// (SetHorizon), near-future events go through a calendar tier with O(1)
// push and pop instead of a heap's O(log n) sift. Pop order is always the
// total order (time, sequence), so neither the calendar tier nor the
// hand-rolled fallback heap changes the order events fire in and
// simulation determinism is unaffected.
//
// Events may be tagged with a lane (ScheduleLane): the node whose state
// the callback touches. When the lanes' owner promises a lookahead
// (SetLanes), Run fires one lookahead window of lane events at a time,
// the lanes of a busy window side by side on a worker pool, and commits
// what they did in the serial (time, sequence) order — see lanes.go.
package vclock

import (
	"cmp"
	"errors"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// ErrStopped is returned by Run when the simulation was stopped explicitly
// before the event queue drained.
var ErrStopped = errors.New("vclock: simulation stopped")

// Sim is a discrete-event simulator owned by one goroutine: every method
// is called from the goroutine that calls Run, from the callbacks of
// untagged events, or between runs. Untagged events fire on that
// goroutine, alone, in (time, sequence) order — events with equal times in
// the order they were scheduled, which keeps simulations deterministic.
// Lane events fire in the same order as far as anything they touch can
// tell, but those of different lanes may run at once on Run's worker pool,
// so a lane callback touches only its own lane's state, reads the clock
// with LaneNow, and reaches everything shared — this Sim included —
// through the lanes' owner (see Lanes).
type Sim struct {
	now     time.Duration
	queue   eventQueue
	nextSeq uint64
	stopped bool
	limit   time.Duration // 0 means no limit
	fired   uint64
	trace   uint64

	// Lane execution; see lanes.go.
	owner     Lanes
	lookahead time.Duration
	// windowEnd is the exclusive end of the window being fired or
	// committed, 0 between windows: nothing may be scheduled before it.
	windowEnd time.Duration
	lanes     []laneState
	order     []int32 // lane of every event of the window, in pop order
	active    []int32 // lanes with an event in the window, by first event
	procs     int     // GOMAXPROCS, read once per Run; see running
	// parallel is set while workers fire a window: LaneNow then answers
	// from the lane, not from now. Written only while the workers park.
	parallel bool
	wake     []chan struct{} // one per started worker besides Run's goroutine
	claim    atomic.Int32    // next unclaimed index of active
	windowWG sync.WaitGroup  // workers still firing the current window
	exitWG   sync.WaitGroup  // workers not yet returned
	counts   LaneCounts
}

// SetHorizon hints the timescale most events are scheduled on: d should
// be the typical scheduling distance (a network's delivery bound Δ, say).
// The hint turns on the queue's calendar tier, which spreads near-future
// events over time-partitioned buckets so push and pop are O(1) instead
// of O(log n) — the difference between the event queue dominating a
// large-topology simulation and disappearing from its profile. The hint
// is ignored unless the queue is empty (the tier cannot be retrofitted
// around queued entries). Pop order is unaffected: the calendar is an
// implementation detail behind the same (time, sequence) total order.
func (s *Sim) SetHorizon(d time.Duration) {
	if d <= 0 || s.queue.len() > 0 {
		return
	}
	w := d / bucketsPerHorizon
	if w <= 0 {
		w = 1
	}
	// Round the bucket width up to a power of two so the hot push path
	// maps a time to its window with a shift instead of an int64 divide.
	shift := uint(0)
	for time.Duration(1)<<shift < w {
		shift++
	}
	s.queue.shift = shift
	if s.queue.ring == nil {
		s.queue.ring = make([][]entry, ringBuckets)
	}
}

// fnv64Offset and fnv64Prime are the FNV-1a parameters used by the
// event-trace fingerprint.
const (
	fnv64Offset = 14695981039346656037
	fnv64Prime  = 1099511628211
)

// New creates an empty simulator at virtual time zero.
func New() *Sim {
	return &Sim{trace: fnv64Offset}
}

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// SetDeadline makes Run stop (without error) once the clock would pass the
// given virtual time. Zero removes the deadline.
func (s *Sim) SetDeadline(d time.Duration) { s.limit = d }

// Schedule queues fn to run at the given absolute virtual time, as an
// untagged event. Times in the past are clamped to "now".
func (s *Sim) Schedule(t time.Duration, fn func()) { s.push(t, fn, 0) }

// push queues fn at time t (clamped to now) under the next sequence
// number, tagged with its lane plus one, 0 for an untagged event.
func (s *Sim) push(t time.Duration, fn func(), tag uint64) {
	if fn == nil {
		panic("vclock: nil event callback")
	}
	if t < s.now {
		t = s.now
	}
	if t < s.windowEnd {
		panic("vclock: event scheduled inside the lookahead window being fired")
	}
	s.queue.push(entry{at: t, seq: s.nextSeq<<laneBits | tag, fn: fn})
	s.nextSeq++
}

// ScheduleAfter is Schedule with a delay relative to now.
func (s *Sim) ScheduleAfter(d time.Duration, fn func()) {
	s.Schedule(s.now+d, fn)
}

// Stop aborts Run at the next event boundary. Like every method it
// belongs to Run's goroutine: call it from an untagged event.
func (s *Sim) Stop() { s.stopped = true }

// Pending returns the number of events still queued.
func (s *Sim) Pending() int { return s.queue.len() }

// FiredCount returns the number of events fired so far.
func (s *Sim) FiredCount() uint64 { return s.fired }

// TraceHash returns an FNV-style fingerprint over the (time, sequence)
// pair of every event fired so far. Two simulations with equal hashes
// executed the same event interleaving bit-for-bit; the chaos engine's
// seed→schedule determinism contract (internal/chaos) is asserted against
// this value. The fingerprint is compared only against fingerprints from
// the same binary, so the exact mixing function is an implementation
// detail; what matters is determinism and sensitivity to any change in
// the fired sequence.
func (s *Sim) TraceHash() uint64 { return s.trace }

// traceFire folds one fired event into the interleaving fingerprint:
// xor-multiply over the two 64-bit key words. Word granularity keeps the
// per-event cost at two multiplies; this runs once per fired event, which
// on large topologies means tens of thousands of times per simulated
// broadcast.
func (s *Sim) traceFire(at time.Duration, seq uint64) {
	s.fired++
	h := s.trace
	h = (h ^ uint64(at)) * fnv64Prime
	h = (h ^ seq) * fnv64Prime
	s.trace = h
}

// fire advances the clock to en and runs its callback.
func (s *Sim) fire(en entry) {
	s.now = en.at
	s.traceFire(en.at, en.number())
	en.fn()
}

// Run fires events until the queue drains, a deadline set with SetDeadline
// is reached, or Stop is called. It returns ErrStopped only in the explicit
// Stop case. An untagged event, or any event while no lookahead is set,
// fires alone; otherwise the lane events of one lookahead window fire
// together (fireWindow). The workers a busy window needs start inside Run
// and have returned when Run does.
func (s *Sim) Run() error {
	s.stopped = false
	s.procs = runtime.GOMAXPROCS(0)
	running.Add(1)
	defer running.Add(-1)
	defer s.stopWorkers()
	for {
		head := s.queue.peek()
		if head == nil {
			return nil
		}
		if s.stopped {
			return ErrStopped
		}
		if s.limit > 0 && head.at > s.limit {
			s.now = s.limit
			return nil
		}
		if head.laneTag() == 0 || s.lookahead <= 0 {
			s.fire(s.queue.popKnownHead(head))
			continue
		}
		s.fireWindow(head)
	}
}

// RunUntil fires events until the clock reaches the given virtual time or
// the queue drains, one event at a time on the calling goroutine. The
// clock is left at t (or beyond the last event) and never exceeds t.
func (s *Sim) RunUntil(t time.Duration) {
	for {
		head := s.queue.peek()
		if head == nil || head.at > t {
			break
		}
		s.fire(s.queue.popKnownHead(head))
	}
	if s.now < t {
		s.now = t
	}
}

// entry is a queue element with the ordering key stored inline, so
// comparisons and moves chase no pointer.
//
// seq is the tie-break key: the event's sequence number in the high bits
// and, below it, its lane tag — the lane plus one, 0 for an untagged event.
// Sequence numbers are unique, so the tag never decides a comparison. It
// rides in the key, 24 bytes an entry, because a field of its own makes
// that 32 and is slower where the queue is deep (ten alternated -cpu 1
// runs, median: BenchmarkLaneWindows 7.1 ms against 8.2 ms with the field,
// BenchmarkScheduleAndRun 2.4 ms either way).
type entry struct {
	at  time.Duration
	seq uint64
	fn  func()
}

// laneBits is the width of the lane tag in entry.seq: room for a million
// lanes, and 2^44 events in one simulator's life.
const laneBits = 20

// number returns the event's sequence number.
func (en *entry) number() uint64 { return en.seq >> laneBits }

// laneTag returns the event's lane plus one, 0 for an untagged event.
func (en *entry) laneTag() uint64 { return en.seq & (1<<laneBits - 1) }

// Calendar-tier geometry: the horizon hint is split into
// bucketsPerHorizon windows (width rounded up to a power of two), and
// the ring holds ringBuckets of them, so the ring spans at least 8× the
// hinted horizon — deliveries (≤ 1 horizon out) and lockstep ticks
// (2 horizons out) both land inside it.
// bucketsPerHorizon trades bucket occupancy (a bucket is insertion-
// sorted when its window activates, so sorting is quadratic in it)
// against ring footprint and empty-bucket skipping; 128 measured best —
// finer grids lose more to cache misses over the larger ring than they
// save in sorting.
const (
	bucketsPerHorizon = 128
	ringBuckets       = 1024 // power of two; see ringMask
	ringMask          = ringBuckets - 1
)

// eventQueue orders entries by the (at, seq) total order. It has two
// tiers:
//
//   - A calendar ring of time-partitioned buckets (active when a
//     SetHorizon hint set width). A push inside the ring's window is an
//     O(1) append; a bucket is sorted once, when the clock reaches its
//     window. This is where the bulk of a simulation's events — message
//     deliveries and round ticks, all scheduled a bounded distance ahead
//     — live, replacing the O(log n) sift over one big heap that used to
//     dominate large-topology profiles.
//   - A 4-ary min-heap for everything else: events beyond the ring's
//     span, events landing in the already-sorted active window, and all
//     events when no horizon hint was given. Hand-rolled instead of
//     container/heap so entries never round-trip through `any` (which
//     heap-allocates a box per call).
//
// pop merges the two tiers by comparing their heads; each tier yields
// entries in (at, seq) order, so the merge is the same global order a
// single heap produced and simulation determinism is unaffected.
type eventQueue struct {
	heap []entry
	ring [][]entry // nil = heap only (no horizon hint)
	// shift is log2 of the bucket width: a time maps to its absolute
	// window index with at >> shift. curAbs is the window index of the
	// active bucket; curIdx is the consume position inside it. count is
	// the total queued entries across both tiers.
	shift  uint
	curAbs int64
	curIdx int
	rung   int // live entries in the ring (not yet consumed)
	count  int
}

func (q *eventQueue) len() int { return q.count }

func (q *eventQueue) push(en entry) {
	q.count++
	if q.ring != nil {
		abs := int64(en.at) >> q.shift
		if abs > q.curAbs && abs < q.curAbs+ringBuckets {
			b := &q.ring[abs&ringMask]
			*b = append(*b, en)
			q.rung++
			return
		}
	}
	q.heapPush(en)
}

// ringHead returns the next unconsumed ring entry, advancing and sorting
// buckets as their windows are reached, or nil if the ring is empty.
// Advancing past an empty window is safe even though virtual time has
// not reached it: entries are only ever pushed at or after the current
// time, and push routes anything at or before the active window to the
// heap, so a skipped window can never be populated later.
func (q *eventQueue) ringHead() *entry {
	if q.rung == 0 {
		return nil
	}
	b := q.ring[q.curAbs&ringMask]
	for q.curIdx >= len(b) {
		q.ring[q.curAbs&ringMask] = b[:0]
		q.curAbs++
		q.curIdx = 0
		b = q.ring[q.curAbs&ringMask]
		if len(b) > 1 {
			sortEntries(b)
		}
	}
	return &b[q.curIdx]
}

// sortEntries sorts a bucket by (at, seq). Small buckets — the common
// case: a few entries most rounds, several dozen when every node
// multicasts in the same round — take an allocation-free insertion
// sort on the inline keys, which beats a generic sort's dispatch at
// those sizes. Large buckets — saturated-link echo storms (ERNG at
// N=128 lands ~10^4 deliveries per window) — must not pay insertion
// sort's quadratic movement, so they go through slices.SortFunc
// instead. (at, seq) is a strict total order (seq is unique), so the
// unstable sort still produces one deterministic permutation.
func sortEntries(b []entry) {
	if len(b) > 48 {
		slices.SortFunc(b, func(x, y entry) int {
			if x.at != y.at {
				return cmp.Compare(x.at, y.at)
			}
			return cmp.Compare(x.seq, y.seq)
		})
		return
	}
	for i := 1; i < len(b); i++ {
		en := b[i]
		j := i
		for j > 0 && (en.at < b[j-1].at || (en.at == b[j-1].at && en.seq < b[j-1].seq)) {
			b[j] = b[j-1]
			j--
		}
		b[j] = en
	}
}

// peek returns the entry that pop would return next, or nil when empty.
func (q *eventQueue) peek() *entry {
	rh := q.ringHead()
	if len(q.heap) == 0 {
		return rh // may be nil
	}
	hh := &q.heap[0]
	if rh == nil || hh.at < rh.at || (hh.at == rh.at && hh.seq < rh.seq) {
		return hh
	}
	return rh
}

func (q *eventQueue) pop() entry {
	rh := q.ringHead()
	if rh != nil {
		if len(q.heap) == 0 || rh.at < q.heap[0].at || (rh.at == q.heap[0].at && rh.seq < q.heap[0].seq) {
			en := *rh
			*rh = entry{}
			q.curIdx++
			q.rung--
			q.count--
			return en
		}
	}
	q.count--
	return q.heapPop()
}

// popKnownHead consumes the entry a peek just returned, skipping the
// tier comparison pop would redo: the head pointer itself identifies
// the winning tier. The queue must not have been mutated since the
// peek.
func (q *eventQueue) popKnownHead(head *entry) entry {
	q.count--
	if len(q.heap) > 0 && head == &q.heap[0] {
		return q.heapPop()
	}
	en := *head
	*head = entry{}
	q.curIdx++
	q.rung--
	return en
}

func (q *eventQueue) heapPush(en entry) {
	h := append(q.heap, en)
	q.heap = h
	// Sift up along the hole: parents move down one slot each and the new
	// entry is written exactly once, halving the copies of a swap chain.
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 4
		if !(en.at < h[i].at || (en.at == h[i].at && en.seq < h[i].seq)) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = en
}

func (q *eventQueue) heapPop() entry {
	h := q.heap
	en := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = entry{}
	h = h[:n]
	q.heap = h
	if n == 0 {
		return en
	}
	// Sift the former tail entry down along the min-child path (4-ary:
	// half the depth of a binary heap), moving children up into the hole
	// instead of swapping; the tail entry is written exactly once at its
	// final slot.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		j := c
		end := c + 4
		if end > n {
			end = n
		}
		for k := c + 1; k < end; k++ {
			if h[k].at < h[j].at || (h[k].at == h[j].at && h[k].seq < h[j].seq) {
				j = k
			}
		}
		if !(h[j].at < last.at || (h[j].at == last.at && h[j].seq < last.seq)) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = last
	return en
}
