package runtime

import (
	"errors"
	"fmt"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Errors returned by the multiplexer.
var (
	// ErrMuxBacklog is returned by Spawn when the admission backlog is
	// full: the flow-control signal callers shed load on instead of
	// queueing unboundedly.
	ErrMuxBacklog = errors.New("runtime: mux spawn backlog full")
	// ErrMuxUnadmitted marks an instance whose run ended before the
	// admission window reached it.
	ErrMuxUnadmitted = errors.New("runtime: mux run ended before instance was admitted")
)

// MuxConfig bounds a Mux's concurrency. Zero values mean unlimited.
type MuxConfig struct {
	// MaxInFlight caps the instances running concurrently. Spawns past
	// the cap wait in the backlog and are admitted FIFO at round
	// boundaries as running instances retire — the bound that keeps a
	// node's per-round work (and the sealed frames it coalesces) flat no
	// matter how many broadcasts are requested.
	MaxInFlight int
	// MaxBacklog caps the admission backlog; Spawn returns ErrMuxBacklog
	// beyond it, pushing backpressure to the caller.
	MaxBacklog int
}

// Mux multiplexes many lightweight protocol instances over one Peer: one
// Transport, one set of sealed links, one round-scoped outbox. Instances
// are plain state machines behind cheap *Instance handles; everything
// heavy — cipher state, scratch buffers, the batch coalescing path — is
// the shared Peer's. All frames the hosted instances emit toward one
// destination in one round leave in a single sealed batch frame, which is
// where the sustained-throughput win over serial runs comes from: the
// per-frame seal and transport costs amortize across every instance.
//
// The Mux is itself a Protocol driven by the shared Peer's lockstep
// rounds: OnRound retires expired instances, admits backlogged ones FIFO
// under MaxInFlight, and ticks every running instance in spawn order;
// OnMessage routes by the instance id carried in every wire.Message.
// All scheduling decisions depend only on spawn order and round numbers,
// so identically-spawned Muxes on different nodes make identical
// decisions — the cross-node determinism lockstep protocols need.
//
// A Mux is confined to its Peer's event loop, like the Peer itself.
type Mux struct {
	peer *Peer
	cfg  MuxConfig

	// baseID is the peer's epoch at construction; hosted instances are
	// numbered baseID+1 onward so their wire ids never collide with the
	// single-instance epochs that preceded the mux run.
	baseID uint32
	nextID uint32

	backlog []*Instance // spawned, not yet admitted (FIFO)
	running []*Instance // admitted, in spawn order
	byID    []*Instance // every spawn ever, indexed by id-baseID-1

	unknownDrops uint64

	// mRunning and mBacklog are registry-wide: every mux of a deployment
	// adds its own changes (publish), so each reads the sum over muxes.
	mRunning  *telemetry.Gauge
	mBacklog  *telemetry.Gauge
	published struct{ running, backlog int64 } // what this mux has added
	mSpawned  *telemetry.Counter
	mRetired  *telemetry.Counter
	mUnknown  *telemetry.Counter
	mBuildErr *telemetry.Counter
}

// NewMux builds a multiplexer over p. The peer must not be mid-instance;
// the caller drives the mux run with p.Start(mux, mux.PlannedRounds()).
func NewMux(p *Peer, cfg MuxConfig) *Mux {
	m := &Mux{peer: p, cfg: cfg, baseID: p.Instance(), nextID: p.Instance() + 1}
	if reg := p.Metrics(); reg != nil {
		m.mRunning = reg.Gauge("mux_running_instances")
		m.mBacklog = reg.Gauge("mux_backlog_instances")
		m.mSpawned = reg.Counter("mux_spawned_total")
		m.mRetired = reg.Counter("mux_retired_total")
		m.mUnknown = reg.Counter("mux_unknown_drops_total")
		m.mBuildErr = reg.Counter("mux_build_failures_total")
	}
	return m
}

// Peer returns the shared peer the mux runs over.
func (m *Mux) Peer() *Peer { return m.peer }

// NextID returns the id the next spawn will receive — after a finished
// run, the value a caller passes to AlignInstance so later epochs never
// reuse a multiplexed instance id.
func (m *Mux) NextID() uint32 { return m.nextID }

// UnknownDrops counts messages addressed to no live instance (retired,
// unadmitted or foreign ids) — dropped as omissions.
func (m *Mux) UnknownDrops() uint64 { return m.unknownDrops }

// Spawn registers a protocol instance that will run for windowRounds
// consecutive rounds once admitted. build constructs the protocol against
// the instance handle — its Host view of the shared peer — and runs at
// admission time, when the instance's StartRound is known. Spawn itself
// only queues: admission happens at round boundaries, FIFO, under
// MaxInFlight. ErrMuxBacklog reports a full backlog (flow control); a
// build error is deferred to admission and surfaces on the handle's Err.
//
// For cross-node determinism every node must spawn the same instances in
// the same order with the same windows — the same discipline that already
// governs which protocol a deployment starts.
func (m *Mux) Spawn(windowRounds int, build func(*Instance) (Protocol, error)) (*Instance, error) {
	if windowRounds <= 0 {
		return nil, fmt.Errorf("runtime: mux window %d rounds, want >= 1", windowRounds)
	}
	if build == nil {
		return nil, errors.New("runtime: nil mux build function")
	}
	if m.cfg.MaxBacklog > 0 && len(m.backlog) >= m.cfg.MaxBacklog {
		return nil, ErrMuxBacklog
	}
	it := &Instance{Host: m.peer, mux: m, id: m.nextID, window: uint32(windowRounds), build: build}
	m.nextID++
	m.backlog = append(m.backlog, it)
	m.byID = append(m.byID, it)
	m.mSpawned.Inc()
	m.publish()
	return it, nil
}

// PlannedRounds simulates the admission schedule over the current backlog
// and running set and returns the last round any instance occupies — the
// round count to pass to Peer.Start so every spawned instance gets its
// full window. The simulation replays exactly what OnRound will do
// (retire, then admit FIFO under MaxInFlight), so plan and execution
// cannot drift.
func (m *Mux) PlannedRounds() int {
	last := uint32(0)
	var ends []uint32
	for _, it := range m.running {
		end := it.lastRound()
		ends = append(ends, end)
		last = max(last, end)
	}
	backlog := m.backlog
	for rnd := m.peer.Round() + 1; len(backlog) > 0; rnd++ {
		kept := ends[:0]
		for _, end := range ends {
			if rnd <= end {
				kept = append(kept, end)
			}
		}
		ends = kept
		for len(backlog) > 0 && (m.cfg.MaxInFlight <= 0 || len(ends) < m.cfg.MaxInFlight) {
			end := rnd + backlog[0].window - 1
			backlog = backlog[1:]
			ends = append(ends, end)
			if end > last {
				last = end
			}
		}
	}
	return int(last)
}

// OnRound drives one lockstep round across the hosted instances: retire
// the ones whose window ended, admit backlogged ones into the freed
// slots, then tick every running instance in spawn order. Newly admitted
// instances tick in the same round they were admitted — their StartRound.
func (m *Mux) OnRound(rnd uint32) {
	m.retireExpired(rnd)
	m.admit(rnd)
	for _, it := range m.running {
		if m.peer.Halted() || !m.peer.started {
			return
		}
		it.proto.OnRound(rnd)
	}
}

// OnMessage routes one delivered message to the hosted instance named by
// its wire instance id. Messages for retired, unadmitted or foreign
// instances are dropped — indistinguishable from omissions, exactly how
// a dedicated peer treats traffic from another epoch.
func (m *Mux) OnMessage(msg *wire.Message) {
	it := m.lookup(msg.Instance)
	if it == nil || !it.running {
		m.unknownDrops++
		m.mUnknown.Inc()
		return
	}
	it.proto.OnMessage(msg)
}

// OnFinish ends the mux run: every still-running instance finishes, and
// anything left in the backlog (possible only if the run was started with
// fewer rounds than PlannedRounds) fails with ErrMuxUnadmitted.
func (m *Mux) OnFinish() {
	for _, it := range m.running {
		m.finish(it, nil)
	}
	m.running = m.running[:0]
	for _, it := range m.backlog {
		it.done, it.err = true, ErrMuxUnadmitted
	}
	m.backlog = m.backlog[:0]
	m.publish()
}

// publish adds to the gauges what the running set and the backlog changed
// by since the last call.
func (m *Mux) publish() {
	running, backlog := int64(len(m.running)), int64(len(m.backlog))
	m.mRunning.Add(running - m.published.running)
	m.mBacklog.Add(backlog - m.published.backlog)
	m.published.running, m.published.backlog = running, backlog
}

// retireExpired finishes every running instance whose window ended before
// rnd, preserving spawn order among the survivors.
func (m *Mux) retireExpired(rnd uint32) {
	if len(m.running) == 0 {
		return
	}
	kept := m.running[:0]
	for _, it := range m.running {
		if rnd > it.lastRound() {
			m.finish(it, nil)
		} else {
			kept = append(kept, it)
		}
	}
	for i := len(kept); i < len(m.running); i++ {
		m.running[i] = nil
	}
	m.running = kept
	m.publish()
}

// admit moves backlogged instances into the running set, FIFO, while
// MaxInFlight allows. Admission fixes the instance's round window and
// runs its deferred build; a failed build consumes the admission attempt
// and surfaces on the handle.
func (m *Mux) admit(rnd uint32) {
	changed := false
	for len(m.backlog) > 0 && (m.cfg.MaxInFlight <= 0 || len(m.running) < m.cfg.MaxInFlight) {
		it := m.backlog[0]
		m.backlog[0] = nil
		m.backlog = m.backlog[1:]
		changed = true
		it.startRound = rnd
		proto, err := it.build(it)
		if err != nil {
			it.done, it.err = true, err
			m.mBuildErr.Inc()
			continue
		}
		it.proto = proto
		it.running = true
		m.running = append(m.running, it)
	}
	if changed {
		m.publish()
	}
}

// finish retires one instance: its protocol's OnFinish fires (unless the
// instance failed with err) and the handle becomes Done.
func (m *Mux) finish(it *Instance, err error) {
	it.running = false
	it.done = true
	it.err = err
	if err == nil && it.proto != nil {
		it.proto.OnFinish()
	}
	m.mRetired.Inc()
}

// lookup resolves a wire instance id to its handle (nil when the id was
// never spawned by this mux). byID is dense — ids are assigned
// sequentially from baseID+1 — so routing is one bounds check and one
// slice index, no map.
func (m *Mux) lookup(id uint32) *Instance {
	if id <= m.baseID {
		return nil
	}
	i := int(id - m.baseID - 1)
	if i >= len(m.byID) {
		return nil
	}
	return m.byID[i]
}

var _ Protocol = (*Mux)(nil)

// Instance is the handle of one multiplexed protocol instance: the Host
// its protocol programs against. Every capability is the shared peer's,
// promoted through the embedded Host (the interface, not the *Peer, so a
// handle grants nothing a protocol may not touch — Start, Stop, the
// links), except identity: Instance() returns the per-instance wire id,
// so messages the protocol sends are stamped with it, and Trace
// attributes events to it — which is all a protocol needs to coexist
// with a thousand neighbors on the same links.
type Instance struct {
	Host
	mux   *Mux
	build func(*Instance) (Protocol, error)
	proto Protocol
	err   error

	// An admitted instance occupies rounds [startRound, startRound+window).
	id         uint32
	window     uint32
	startRound uint32
	running    bool
	done       bool
}

// Instance returns this instance's wire id.
func (it *Instance) Instance() uint32 { return it.id }

// Trace records a protocol-layer event attributed to this instance.
func (it *Instance) Trace(kind telemetry.Kind, peer wire.NodeID, arg uint64) {
	it.mux.peer.traceInst(it.id, kind, peer, arg)
}

// StartRound returns the round the instance was admitted in (0 while it
// waits in the backlog) — the protocol's absolute round origin.
func (it *Instance) StartRound() uint32 { return it.startRound }

// lastRound is the final round of an admitted instance's window.
func (it *Instance) lastRound() uint32 { return it.startRound + it.window - 1 }

// Done reports whether the instance's window ended (or it failed).
func (it *Instance) Done() bool { return it.done }

// Err returns why the instance never ran to completion: a build error,
// ErrMuxUnadmitted, or nil for a clean retirement.
func (it *Instance) Err() error { return it.err }

var _ Host = (*Instance)(nil)
