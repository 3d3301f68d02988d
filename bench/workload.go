package main

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"sgxp2p"
	"sgxp2p/internal/telemetry"
)

// kind selects what one API call of a workload is.
type kind int

const (
	kindSerial    kind = iota // one Broadcast, initiator rotating
	kindMux                   // one BroadcastMany of perCall requests
	kindEpoch                 // one ERNG epoch
	kindChainCold             // fresh cluster + one Broadcast under the §6.3 chain
)

// spec is one workload: a closed loop with one caller at a stated size.
type spec struct {
	name, why string
	kind      kind
	n, t      int
	real      bool
	optimized bool
	chain     int // kindChainCold: chain length f
	perCall   int // ops per API call (kindMux: requests per BroadcastMany)
	inFlight  int // kindMux: MuxOptions.MaxInFlight
	warmup    int // untimed API calls before the window
}

// workloads is the benchmark. The sizes are the ISSUE-11 sizes; the "why"
// strings are repeated in BENCHMARK.json and bench/README.md.
var workloads = []spec{
	{
		name: "erb_serial", kind: kindSerial, n: 64, t: 31, real: true, perCall: 1, warmup: 50,
		why: "one ERB at a time on a standing N=64 cluster: 8064 singleton frames per op, so per-frame channel/xcrypto cost dominates and coalescing does nothing",
	},
	{
		name: "erb_mux", kind: kindMux, n: 64, t: 31, real: true, perCall: 64, inFlight: 16, warmup: 1,
		why: "64 broadcasts per BroadcastMany call at 16 in flight: mux admission, batch frames and frame-cumulative ACKs do the work, crypto is per-byte, heap is the risk",
	},
	{
		name: "erng_basic", kind: kindEpoch, n: 32, t: 15, perCall: 1, warmup: 20,
		why: "Algorithm 3 epochs with the model sealer: O(N^3) messages and no AES/HMAC, so erb/erng handlers, wire, ACK accounting, vclock/simnet and the sealer's per-byte checksum share the work",
	},
	{
		name: "beacon_opt", kind: kindEpoch, n: 256, t: 85, real: true, optimized: true, perCall: 1, warmup: 5,
		why: "Algorithm 6 beacon epochs at N=256 (sampled, 21 rounds): most of the 32640 links idle, so per-link working set and idle ticks matter, and setup is large enough to read",
	},
	{
		name: "erb_chain_cold", kind: kindChainCold, n: 64, t: 31, real: true, chain: 8, perCall: 1, warmup: 5,
		why: "fresh cluster per op under the worst-case 8-node chain: decision at round 10, 8 nodes halt, and every op re-pays enclave launch, attestation and link setup",
	},
}

// smoke shrinks a workload to N=8 so the tests can run every driver, shim
// and probe in well under a second.
func smoke(s spec) spec {
	s.n, s.t, s.warmup = 8, 3, 1
	if s.optimized {
		s.t = 2
	}
	if s.chain > 0 {
		s.chain = 2
	}
	if s.kind == kindMux {
		s.perCall, s.inFlight = 8, 4
	}
	return s
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// valueFor derives the payload of request j of call i from the seed.
func valueFor(seed int64, i, j int) sgxp2p.Value {
	var b [24]byte
	binary.LittleEndian.PutUint64(b[0:], uint64(seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(i))
	binary.LittleEndian.PutUint64(b[16:], uint64(j))
	return sha256.Sum256(b[:])
}

// setup_s is the median of at least setupRepeats cold builds; small
// clusters are rebuilt until setupBudget is spent (at most setupMax times)
// so that their median rests on more than a handful of millisecond samples.
const (
	setupRepeats = 5
	setupMax     = 25
	setupBudget  = 1500 * time.Millisecond
)

// run is one pass of one workload: the public-API pass when rec is nil,
// the traced mirror pass otherwise.
type run struct {
	spec spec
	seed int64
	rec  *recorder
	cap  *capture
	// telemetry, when set, is the library's own tracer attached to every
	// cluster of the run (the telemetry probe); nil everywhere else.
	telemetry *telemetry.Tracer

	sim     sim      // the standing cluster; nil between ops of kindChainCold
	retired counters // counters of clusters already discarded (kindChainCold)
	setups  []time.Duration

	calls     []time.Duration // wall time of every timed API call
	callCPU   []time.Duration // process CPU time of every timed API call
	failed    int
	firstFail error
	rounds    uint32
	peakHeap  uint64
}

func (r *run) config(seed int64) clusterConfig {
	return clusterConfig{
		n: r.spec.n, t: r.spec.t, real: r.spec.real,
		chain: r.spec.chain, optimized: r.spec.optimized, seed: seed,
		telemetry: r.telemetry,
	}
}

// build makes one cold cluster and records how long that took.
func (r *run) build(seed int64) (sim, error) {
	var (
		s   sim
		err error
	)
	start := time.Now()
	if r.rec == nil {
		s, err = newAPISim(r.config(seed))
	} else {
		s, err = newMirror(r.config(seed), r.rec, r.cap)
	}
	r.setups = append(r.setups, time.Since(start))
	return s, err
}

// setup builds the standing cluster from cold, with distinct seeds, and
// keeps the last build: at least atLeast times, and up to atMost times
// while the builds so far took less than setupBudget. kindChainCold has no
// standing cluster: its setup samples are the per-op builds.
func (r *run) setup(atLeast, atMost int) error {
	if r.spec.kind == kindChainCold {
		return nil
	}
	var spent time.Duration
	for k := 0; k < atLeast || (k < atMost && spent < setupBudget); k++ {
		r.sim = nil
		runtime.GC()
		s, err := r.build(r.seed + int64(k))
		if err != nil {
			return fmt.Errorf("%s: build: %w", r.spec.name, err)
		}
		r.sim = s
		spent += r.setups[len(r.setups)-1]
	}
	return nil
}

func (r *run) counters() counters {
	if r.sim == nil {
		return r.retired
	}
	return r.retired.plus(r.sim.Counters())
}

// checkBroadcast is the ERB oracle: exactly `want` nodes decided, all
// accepted v, none later than maxRound. It returns the last decision round.
func checkBroadcast(res map[sgxp2p.NodeID]sgxp2p.BroadcastResult, want int, v sgxp2p.Value, maxRound uint32) (uint32, error) {
	if len(res) != want {
		return 0, fmt.Errorf("%d nodes decided, want %d", len(res), want)
	}
	var last uint32
	for id, r := range res {
		if !r.Accepted || r.Value != v {
			return 0, fmt.Errorf("node %d decided accepted=%v value=%v, want %v", id, r.Accepted, r.Value, v)
		}
		last = max(last, r.Round)
	}
	if last > maxRound {
		return last, fmt.Errorf("decided in round %d, bound is %d", last, maxRound)
	}
	return last, nil
}

// call performs API call number i (warm-up calls included in the count)
// and checks its outputs. A non-nil error is a failed op, not a fatal one.
func (r *run) call(i int) (rounds uint32, err error) {
	s := r.spec
	switch s.kind {
	case kindSerial:
		v := valueFor(r.seed, i, 0)
		res, err := r.sim.Broadcast(sgxp2p.NodeID(i%s.n), v)
		if err != nil {
			return 0, err
		}
		// f = 0, so min{f+2, t+2} = 2.
		return checkBroadcast(res, s.n, v, 2)

	case kindMux:
		reqs := make([]sgxp2p.BroadcastRequest, s.perCall)
		for j := range reqs {
			reqs[j] = sgxp2p.BroadcastRequest{
				Initiator: sgxp2p.NodeID((i*s.perCall + j) % s.n),
				Value:     valueFor(r.seed, i, j),
			}
		}
		all, err := r.sim.BroadcastMany(reqs, sgxp2p.MuxOptions{MaxInFlight: s.inFlight})
		if err != nil {
			return 0, err
		}
		if len(all) != len(reqs) {
			return 0, fmt.Errorf("%d results for %d requests", len(all), len(reqs))
		}
		// The window of request j opens when the mux admits it; the last
		// decision round of the call is the length of the admission
		// schedule, bounded by the call's planned rounds.
		for j, res := range all {
			last, err := checkBroadcast(res, s.n, reqs[j].Value, ^uint32(0))
			if err != nil {
				return 0, fmt.Errorf("request %d: %w", j, err)
			}
			rounds = max(rounds, last)
		}
		return rounds, nil

	case kindEpoch:
		t0 := r.sim.Now()
		e, err := r.sim.Epoch()
		if err != nil {
			return 0, err
		}
		// Algorithm 6 outputs an agreed bottom when its sampled cluster
		// drew no initiator (about 0.15 % of epochs at N=256); that is the
		// protocol working, so only Algorithm 3 must always emit.
		if !e.ok && !s.optimized {
			return 0, errors.New("epoch produced bottom")
		}
		// The round the emission happened in: rounds last 2Δ = 2 s.
		return uint32((e.at-t0)/(2*time.Second)) + 1, nil

	case kindChainCold:
		if r.rec != nil {
			r.rec.begin(spDeployNew, -1)
		}
		c, err := r.build(r.seed + int64(i))
		if r.rec != nil {
			r.rec.end()
		}
		if err != nil {
			return 0, err
		}
		r.sim = c
		defer func() {
			r.retired = r.retired.plus(c.Counters())
			r.sim = nil
		}()
		v := valueFor(r.seed, i, 0)
		res, err := c.Broadcast(0, v)
		if err != nil {
			return 0, err
		}
		// §6.3: the chain delays the decision to exactly round f+2 and
		// P4 halts exactly the chain.
		rounds, err = checkBroadcast(res, s.n-s.chain, v, uint32(s.chain+2))
		if err == nil && rounds != uint32(s.chain+2) {
			err = fmt.Errorf("decided in round %d, the chain should delay it to %d", rounds, s.chain+2)
		}
		for id := 0; id < s.n && err == nil; id++ {
			if halted := c.Halted(sgxp2p.NodeID(id)); halted != (id < s.chain) {
				err = fmt.Errorf("node %d halted=%v, want %v", id, halted, !halted)
			}
		}
		return rounds, err
	}
	panic("unknown workload kind")
}

// fail counts n failed ops and keeps the first reason.
func (r *run) fail(n int, err error) {
	r.failed += n
	if r.firstFail == nil {
		r.firstFail = fmt.Errorf("%s: %w", r.spec.name, err)
	}
}

// window is the outcome of one timed window.
type window struct {
	ops     int
	wall    time.Duration // sum of the API call times
	mallocs uint64
	bytes   uint64
	delta   counters
	events  uint64 // telemetry events recorded (telemetry probe only)
}

var heapSample = []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// measure runs the warm-up, then API calls until `limit` has elapsed or
// maxCalls were made (0 = no cap), whichever comes first.
func (r *run) measure(limit time.Duration, maxCalls int) (window, error) {
	for i := 0; i < r.spec.warmup; i++ {
		if _, err := r.call(i); err != nil {
			return window{}, fmt.Errorf("%s: warm-up call %d: %w", r.spec.name, i, err)
		}
	}
	if r.spec.kind == kindChainCold {
		r.setups = r.setups[:0] // the warm-up builds are not setup samples
	}
	if r.rec != nil {
		r.rec.reset()
	}
	r.calls = make([]time.Duration, 0, 1<<14)
	r.callCPU = make([]time.Duration, 0, 1<<14)
	runtime.GC()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0, ev0 := r.counters(), r.telemetry.EventCount()
	start := time.Now()
	for i := r.spec.warmup; ; i++ {
		if r.rec != nil {
			r.rec.begin(spOp, -1)
		}
		cpu0 := cpuTime()
		t0 := time.Now()
		rounds, err := r.call(i)
		r.calls = append(r.calls, time.Since(t0))
		r.callCPU = append(r.callCPU, cpuTime()-cpu0)
		if r.rec != nil {
			r.rec.end()
			r.rec.op++
		}
		if err != nil {
			r.fail(r.spec.perCall, fmt.Errorf("call %d: %w", i, err))
		}
		r.rounds = max(r.rounds, rounds)
		metrics.Read(heapSample)
		r.peakHeap = max(r.peakHeap, heapSample[0].Value.Uint64())
		if time.Since(start) >= limit || len(r.calls) == maxCalls {
			break
		}
	}
	runtime.ReadMemStats(&m1)

	w := window{
		ops:     len(r.calls) * r.spec.perCall,
		mallocs: m1.Mallocs - m0.Mallocs,
		bytes:   m1.TotalAlloc - m0.TotalAlloc,
		delta:   r.counters().minus(c0),
		events:  r.telemetry.EventCount() - ev0,
	}
	for _, c := range r.calls {
		w.wall += c
	}
	if r.sim != nil {
		if err := r.sim.Verify(); err != nil {
			r.fail(1, err)
		}
	}
	return w, nil
}
