package main

import (
	"errors"
	"fmt"
	"time"

	"sgxp2p"
	"sgxp2p/internal/adversary"
	"sgxp2p/internal/beacon"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// clusterConfig is everything a workload configures on a cluster. It maps
// onto sgxp2p.Options for the public-API pass and onto deploy.Options for
// the traced pass; both must describe the same deployment.
type clusterConfig struct {
	n, t      int
	real      bool
	chain     int  // nodes 0..chain-1 run the §6.3 chain, releasing to node chain
	optimized bool // epochs run Algorithm 6 instead of Algorithm 3
	seed      int64
	telemetry *telemetry.Tracer
}

// epoch is one ERNG outcome, reduced to what both passes can observe.
type epoch struct {
	ok    bool
	value wire.Value
	at    time.Duration // virtual time of the emission
}

// counter indexes one cumulative reading of a cluster.
type counter int

const (
	cFrames counter = iota // simnet: payloads handed to the network
	cBytes
	cDropped
	cLate
	cDelivered // runtime.Stats, summed over peers
	cAuthFailures
	cRoundMismatches
	cEarlyBuffered
	cAcksSent
	cAcksReceived
	cHalts
	cSendFailures
	cFired // vclock events
	numCounters
)

// counters are the cumulative readings of one cluster. Everything past
// cLate stays zero on the public-API cluster, which exposes only Traffic.
type counters [numCounters]uint64

func (c counters) plus(o counters) counters {
	for i := range c {
		c[i] += o[i]
	}
	return c
}

// minus returns c - o for readings c taken after o.
func (c counters) minus(o counters) counters {
	for i := range c {
		c[i] -= o[i]
	}
	return c
}

func trafficCounters(t sgxp2p.Traffic) counters {
	return counters{cFrames: t.Messages, cBytes: t.Bytes, cDropped: t.Dropped, cLate: t.Late}
}

func statsCounters(s runtime.Stats) counters {
	return counters{
		cDelivered: s.Delivered, cAuthFailures: s.AuthFailures, cRoundMismatches: s.RoundMismatches,
		cEarlyBuffered: s.EarlyBuffered, cAcksSent: s.AcksSent, cAcksReceived: s.AcksReceived,
		cHalts: s.Halts, cSendFailures: s.SendFailures,
	}
}

// sim is the cluster surface the workloads drive. The untraced pass runs
// them over the library's public API (apiSim); the traced pass over the
// bench's own mirror of that API (mirror), which is where the shims sit.
type sim interface {
	Broadcast(initiator sgxp2p.NodeID, v sgxp2p.Value) (map[sgxp2p.NodeID]sgxp2p.BroadcastResult, error)
	BroadcastMany(reqs []sgxp2p.BroadcastRequest, opts sgxp2p.MuxOptions) ([]map[sgxp2p.NodeID]sgxp2p.BroadcastResult, error)
	Epoch() (epoch, error)
	Halted(id sgxp2p.NodeID) bool
	Now() time.Duration
	Counters() counters
	// Verify runs the end-of-run checks the cluster can make on its own
	// history.
	Verify() error
}

// chainIDs returns the chain members 0..f-1.
func chainIDs(f int) []wire.NodeID {
	ids := make([]wire.NodeID, f)
	for i := range ids {
		ids[i] = wire.NodeID(i)
	}
	return ids
}

// apiSim drives the library exactly as a user would.
type apiSim struct {
	*sgxp2p.Cluster
	beacon *sgxp2p.Beacon // standing beacon for optimized epochs
}

func newAPISim(cfg clusterConfig) (*apiSim, error) {
	opts := sgxp2p.Options{N: cfg.n, T: cfg.t, Seed: cfg.seed, RealCrypto: cfg.real, Trace: cfg.telemetry}
	if cfg.chain > 0 {
		chain := chainIDs(cfg.chain)
		opts.Adversary = make(map[sgxp2p.NodeID]sgxp2p.Behavior, cfg.chain)
		for i, id := range chain {
			opts.Adversary[id] = sgxp2p.Chain(chain, i, sgxp2p.NodeID(cfg.chain))
		}
	}
	c, err := sgxp2p.NewCluster(opts)
	if err != nil {
		return nil, err
	}
	s := &apiSim{Cluster: c}
	if cfg.optimized {
		if s.beacon, err = c.NewBeacon(sgxp2p.BeaconOptimized); err != nil {
			return nil, err
		}
	}
	return s, nil
}

func (s *apiSim) Epoch() (epoch, error) {
	var (
		e   sgxp2p.Emission
		err error
	)
	if s.beacon != nil {
		e, err = s.beacon.RunEpoch()
	} else {
		// GenerateRandom starts a fresh one-link chain per call, so the
		// chain check happens here rather than in Verify.
		if e, err = s.GenerateRandom(); err == nil && beacon.VerifyChain([]beacon.Emission{e}) != -1 {
			err = errors.New("emission digest does not verify")
		}
	}
	return epoch{ok: e.OK, value: e.Value, at: e.At}, err
}

func (s *apiSim) Counters() counters { return trafficCounters(s.Traffic()) }

func (s *apiSim) Verify() error {
	if s.beacon == nil {
		return nil
	}
	if i := beacon.VerifyChain(s.beacon.History()); i != -1 {
		return fmt.Errorf("beacon chain broken at emission %d", i)
	}
	return nil
}

// mirror re-implements Cluster.Broadcast, Cluster.BroadcastMany and
// Beacon.RunEpoch over deploy.New so that the three shims can be placed:
// the transport shim through deploy.Options.Wrap, the host shim into the
// engine constructors and the protocol shim around each engine. Apart
// from the shims it must do exactly what the library's drivers do — the
// drift guard in layers.go fails the run when its wire traffic or round
// counts differ from the public-API pass.
type mirror struct {
	d   *deploy.Deployment
	t   int
	opt bool
	rec *recorder
	cap *capture
}

func newMirror(cfg clusterConfig, rec *recorder, cp *capture) (*mirror, error) {
	chain := chainIDs(cfg.chain)
	d, err := deploy.New(deploy.Options{
		N: cfg.n, T: cfg.t, Seed: cfg.seed, RealCrypto: cfg.real,
		Wrap: func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) < cfg.chain {
				// Same construction as sgxp2p.Cluster.wrapper; the timing
				// shim goes outside the byzantine OS.
				tr = adversary.Wrap(id, tr, adversary.Chain(chain, int(id), wire.NodeID(cfg.chain)), cfg.seed+int64(id))
			}
			return &timedTransport{inner: tr, rec: rec, cap: cp, node: int32(id)}
		},
	})
	if err != nil {
		return nil, err
	}
	return &mirror{d: d, t: cfg.t, opt: cfg.optimized, rec: rec, cap: cp}, nil
}

func (m *mirror) host(h runtime.Host) runtime.Host {
	return &timedHost{Host: h, rec: m.rec, node: int32(h.ID())}
}

func (m *mirror) proto(p runtime.Protocol, node wire.NodeID) runtime.Protocol {
	return &timedProtocol{inner: p, rec: m.rec, cap: m.cap, node: int32(node)}
}

// span runs fn as one driver-level span.
func (m *mirror) span(name spanName, fn func() error) error {
	m.rec.begin(name, -1)
	err := fn()
	m.rec.end()
	return err
}

func (m *mirror) Broadcast(initiator sgxp2p.NodeID, v sgxp2p.Value) (map[sgxp2p.NodeID]sgxp2p.BroadcastResult, error) {
	peers := m.d.Peers
	engines := make([]*erb.Engine, len(peers))
	build := func() error {
		for i, p := range peers {
			if p.Halted() {
				continue
			}
			eng, err := erb.NewEngine(m.host(p), erb.Config{T: m.t, ExpectedInitiators: []wire.NodeID{initiator}})
			if err != nil {
				return err
			}
			engines[i] = eng
		}
		if engines[initiator] != nil {
			engines[initiator].SetInput(v)
		}
		for i, p := range peers {
			if engines[i] != nil {
				p.Start(m.proto(engines[i], p.ID()), engines[i].Rounds())
			}
		}
		return nil
	}
	if err := m.span(spBuild, build); err != nil {
		return nil, err
	}
	if err := m.span(spRun, m.d.Run); err != nil {
		return nil, err
	}
	out := make(map[sgxp2p.NodeID]sgxp2p.BroadcastResult, len(peers))
	_ = m.span(spCollect, func() error {
		for i, eng := range engines {
			if eng == nil || peers[i].Halted() {
				continue
			}
			if res, ok := eng.Result(initiator); ok {
				out[wire.NodeID(i)] = res
			}
		}
		for _, p := range peers {
			p.BumpSeqs()
		}
		return nil
	})
	return out, nil
}

func (m *mirror) BroadcastMany(reqs []sgxp2p.BroadcastRequest, opts sgxp2p.MuxOptions) ([]map[sgxp2p.NodeID]sgxp2p.BroadcastResult, error) {
	peers := m.d.Peers
	muxes := make([]*runtime.Mux, len(peers))
	engines := make([][]*erb.Engine, len(peers))
	build := func() error {
		for i, p := range peers {
			if p.Halted() {
				continue
			}
			mux := runtime.NewMux(p, runtime.MuxConfig{MaxInFlight: opts.MaxInFlight, MaxBacklog: opts.MaxBacklog})
			muxes[i] = mux
			engs := make([]*erb.Engine, len(reqs))
			engines[i] = engs
			self := p.ID()
			for j, req := range reqs {
				if _, err := mux.Spawn(m.t+2, func(inst *runtime.Instance) (runtime.Protocol, error) {
					eng, buildErr := erb.NewEngine(m.host(inst), erb.Config{
						T:                  m.t,
						StartRound:         inst.StartRound(),
						ExpectedInitiators: []wire.NodeID{req.Initiator},
					})
					if buildErr != nil {
						return nil, buildErr
					}
					if self == req.Initiator {
						eng.SetInput(req.Value)
					}
					engs[j] = eng
					return m.proto(eng, self), nil
				}); err != nil {
					return fmt.Errorf("spawn broadcast %d: %w", j, err)
				}
			}
		}
		for i, p := range peers {
			if muxes[i] != nil {
				p.Start(muxes[i], muxes[i].PlannedRounds())
			}
		}
		return nil
	}
	if err := m.span(spBuild, build); err != nil {
		return nil, err
	}
	if err := m.span(spRun, m.d.Run); err != nil {
		return nil, err
	}
	out := make([]map[sgxp2p.NodeID]sgxp2p.BroadcastResult, len(reqs))
	_ = m.span(spCollect, func() error {
		for j, req := range reqs {
			res := make(map[sgxp2p.NodeID]sgxp2p.BroadcastResult, len(peers))
			for i := range peers {
				if engines[i] == nil || engines[i][j] == nil || peers[i].Halted() {
					continue
				}
				if r, ok := engines[i][j].Result(req.Initiator); ok {
					res[wire.NodeID(i)] = r
				}
			}
			out[j] = res
		}
		for i, p := range peers {
			if muxes[i] != nil {
				p.AlignInstance(muxes[i].NextID())
			}
			p.BumpSeqs()
		}
		return nil
	})
	return out, nil
}

func (m *mirror) Epoch() (epoch, error) {
	type decider interface {
		Result() (erng.Result, bool)
	}
	peers := m.d.Peers
	deciders := make([]decider, len(peers))
	build := func() error {
		for i, p := range peers {
			if p.Halted() {
				continue
			}
			if m.opt {
				o, err := erng.NewOptimized(m.host(p), m.t, erng.ModeAuto, 0)
				if err != nil {
					return err
				}
				deciders[i] = o
				p.Start(m.proto(o, p.ID()), o.Rounds())
			} else {
				b, err := erng.NewBasic(m.host(p), m.t)
				if err != nil {
					return err
				}
				deciders[i] = b
				p.Start(m.proto(b, p.ID()), b.Rounds())
			}
		}
		return nil
	}
	if err := m.span(spBuild, build); err != nil {
		return epoch{}, err
	}
	if err := m.span(spRun, m.d.Run); err != nil {
		return epoch{}, err
	}
	var (
		have   bool
		common erng.Result
	)
	err := m.span(spCollect, func() error {
		for i, dec := range deciders {
			if dec == nil || peers[i].Halted() {
				continue
			}
			res, ok := dec.Result()
			if !ok {
				return fmt.Errorf("node %d undecided", i)
			}
			if !have {
				common, have = res, true
			} else if res.OK != common.OK || res.Value != common.Value {
				return beacon.ErrDisagreement
			}
		}
		if !have {
			return errors.New("no live nodes")
		}
		for _, p := range peers {
			p.BumpSeqs()
		}
		return nil
	})
	return epoch{ok: common.OK, value: common.Value, at: common.At}, err
}

func (m *mirror) Halted(id sgxp2p.NodeID) bool { return m.d.Peers[id].Halted() }
func (m *mirror) Now() time.Duration           { return m.d.Sim.Now() }
func (m *mirror) Verify() error                { return nil }

func (m *mirror) Counters() counters {
	c := trafficCounters(m.d.Net.Traffic())
	c[cFired] = m.d.Sim.FiredCount()
	for _, p := range m.d.Peers {
		c = c.plus(statsCounters(p.Stats()))
	}
	return c
}
