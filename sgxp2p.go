// Package sgxp2p is the public API of the sgxp2p library: a Go
// reproduction of "Robust P2P Primitives Using SGX Enclaves" (Jia, Tople,
// Moataz, Gong, Saxena, Liang — ICDCS 2020).
//
// The library provides the paper's two primitives over a network of
// SGX-like enclaved peers:
//
//   - reliable broadcast (ERB): min{f+2, t+2} rounds, O(N^2) messages,
//     tolerating t < N/2 byzantine nodes, and
//   - common unbiased random numbers (ERNG): the basic protocol for
//     t < N/2 and the cluster-sampled protocol for t <= N/3,
//
// plus the applications of the paper's Appendix H (random beacons, shared
// key generation, load balancing, random walks) and the byzantine
// adversary models used to evaluate them.
//
// The quickest start is a simulated cluster:
//
//	cluster, err := sgxp2p.NewCluster(sgxp2p.Options{N: 7, T: 3})
//	...
//	results, err := cluster.Broadcast(0, sgxp2p.ValueFromString("hello"))
//	emission, err := cluster.GenerateRandom()
//
// Everything runs on a deterministic virtual clock: a 1000-node broadcast
// that takes tens of seconds of protocol time replays in milliseconds.
// The same protocol code also runs over real TCP (see cmd/p2pnode).
package sgxp2p

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"time"

	"sgxp2p/internal/beacon"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Core protocol types, re-exported from the implementation packages.
type (
	// NodeID identifies a peer (a dense index in [0, N)).
	NodeID = wire.NodeID
	// Value is a 256-bit protocol value: broadcast payloads and random
	// numbers.
	Value = wire.Value
	// BroadcastResult is one node's decision for a reliable broadcast.
	BroadcastResult = erb.Result
	// RandomResult is one node's decision for an ERNG run.
	RandomResult = erng.Result
	// Emission is one beacon output.
	Emission = beacon.Emission
	// Source produces successive common random values (implemented by
	// *Beacon and consumable by the application packages).
	Source = beacon.Source
	// Traffic aggregates transport-level counters.
	Traffic = simnet.Traffic
)

// DefaultBandwidth is the paper's testbed link: 128 MB/s shared.
const DefaultBandwidth = float64(simnet.DefaultBandwidth)

// ValueFromString derives a Value from arbitrary bytes (SHA-256).
func ValueFromString(s string) Value {
	return Value(sha256.Sum256([]byte(s)))
}

// Options configures a simulated cluster.
type Options struct {
	// N is the network size; T the byzantine bound (N >= 2T+1; the
	// optimized ERNG additionally requires T <= N/3).
	N, T int
	// Delta is the one-way delivery bound; a round lasts 2*Delta.
	// Defaults to 1 second.
	Delta time.Duration
	// Bandwidth models the shared link in bytes/second (0 = unlimited;
	// DefaultBandwidth matches the paper's testbed).
	Bandwidth float64
	// Seed makes the cluster fully deterministic.
	Seed int64
	// RealCrypto switches from the size-identical simulation sealer to
	// real AES-CTR + HMAC-SHA256 channels.
	RealCrypto bool
	// Adversary assigns byzantine OS behaviour to nodes (nil entries and
	// missing ids are honest). See the Omit*/Delay*/Chain constructors.
	Adversary map[NodeID]Behavior
	// Trace attaches an event tracer to the whole cluster (the simulator's
	// virtual clock is bound for you); nil records nothing at zero cost.
	// Build it with telemetry.Options{Spans: true} to get the causal
	// seal→transit→open→deliver→handle hop decomposition that
	// internal/obsplane reconstructs.
	Trace *telemetry.Tracer
	// Metrics attaches a metrics registry; nil records nothing.
	Metrics *telemetry.Metrics
}

// Cluster is a simulated deployment of enclaved peers.
type Cluster struct {
	d   *deploy.Deployment
	t   int
	ads map[NodeID]*AdversaryOS
}

// NewCluster builds and sets up a cluster (enclave launch, attestation,
// sequence-number exchange). Channels open when first used: all of them
// ahead of the first broadcast, a sampled beacon epoch's as it goes.
func NewCluster(opts Options) (*Cluster, error) {
	c := &Cluster{t: opts.T, ads: make(map[NodeID]*AdversaryOS)}
	d, err := deploy.New(deploy.Options{
		N:          opts.N,
		T:          opts.T,
		Delta:      opts.Delta,
		Bandwidth:  opts.Bandwidth,
		Seed:       opts.Seed,
		RealCrypto: opts.RealCrypto,
		Trace:      opts.Trace,
		Metrics:    opts.Metrics,
		Wrap:       c.wrapper(opts),
	})
	if err != nil {
		return nil, err
	}
	c.d = d
	return c, nil
}

// N returns the cluster size.
func (c *Cluster) N() int { return len(c.d.Peers) }

// T returns the byzantine bound.
func (c *Cluster) T() int { return c.t }

// Halted reports whether a node has churned itself out of the network
// (halt-on-divergence).
func (c *Cluster) Halted(id NodeID) bool { return c.d.Peers[id].Halted() }

// Traffic returns the aggregate transport counters.
func (c *Cluster) Traffic() Traffic { return c.d.Net.Traffic() }

// ResetTraffic zeroes the transport counters.
func (c *Cluster) ResetTraffic() { c.d.Net.ResetTraffic() }

// Now returns the cluster's virtual time.
func (c *Cluster) Now() time.Duration { return c.d.Sim.Now() }

// AdversaryState exposes the byzantine OS wrapper of a node configured
// through Options.Adversary (nil for honest nodes), for releasing held
// messages or replaying tapes mid-experiment.
func (c *Cluster) AdversaryState(id NodeID) *AdversaryOS { return c.ads[id] }

// Broadcast runs one ERB instance with the given initiator and payload
// and returns every live node's decision indexed by node id. Nodes that
// halted during the run (byzantine, churned by P4) map to a zero Result
// with ok=false in Decided.
func (c *Cluster) Broadcast(initiator NodeID, v Value) (map[NodeID]BroadcastResult, error) {
	if int(initiator) >= c.N() {
		return nil, fmt.Errorf("sgxp2p: initiator %d out of range", initiator)
	}
	engines, err := c.d.Broadcast(erb.Config{T: c.t, ExpectedInitiators: []NodeID{initiator}}, v, nil)
	if err != nil {
		return nil, err
	}
	out := make(map[NodeID]BroadcastResult, c.N())
	for i, eng := range engines {
		if eng == nil || c.d.Peers[i].Halted() {
			continue
		}
		if res, ok := eng.Result(initiator); ok {
			out[NodeID(i)] = res
		}
	}
	return out, nil
}

// BroadcastRequest names one broadcast of a multiplexed batch: the
// initiating node and the value it broadcasts.
type BroadcastRequest struct {
	Initiator NodeID
	Value     Value
}

// MuxOptions bounds the multiplexed runtime of BroadcastMany.
type MuxOptions struct {
	// MaxInFlight caps the broadcasts running concurrently on every node;
	// excess requests queue and are admitted FIFO as running windows
	// retire. Zero runs everything concurrently.
	MaxInFlight int
	// MaxBacklog caps the admission queue; requests past it fail the call
	// (runtime.ErrMuxBacklog). Zero means unbounded.
	MaxBacklog int
}

// runMany runs count protocol instances concurrently over one multiplexed
// runtime: every live node hosts them behind a shared runtime.Mux, so all
// same-round traffic to a peer — across every in-flight instance — leaves
// in a single sealed batch frame. build constructs instance j against its
// handle at admission; a window is T+2 rounds, an ERB's admission round
// (INIT) through its acceptance deadline StartRound+T+1, which is also a
// basic ERNG's. The j-th returned map holds result's answer for instance j
// on every live node that has one.
func runMany[P interface {
	comparable
	runtime.Protocol
}, R any](c *Cluster, count int, opts MuxOptions,
	build func(inst *runtime.Instance, j int) (P, error), result func(p P, j int) (R, bool)) ([]map[NodeID]R, error) {
	var none P
	hosted := make([][]P, c.N())
	host := func(p *runtime.Peer) (runtime.Protocol, int, error) {
		m := runtime.NewMux(p, runtime.MuxConfig(opts))
		slots := make([]P, count)
		hosted[p.ID()] = slots
		for j := 0; j < count; j++ {
			admit := func(inst *runtime.Instance) (runtime.Protocol, error) {
				proto, err := build(inst, j)
				if err != nil {
					return nil, err
				}
				slots[j] = proto
				return proto, nil
			}
			if _, err := m.Spawn(c.t+2, admit); err != nil {
				return nil, 0, fmt.Errorf("spawn instance %d: %w", j, err)
			}
		}
		return m, m.PlannedRounds(), nil
	}
	if err := c.d.RunInstance(host, nil); err != nil {
		return nil, err
	}
	out := make([]map[NodeID]R, count)
	for j := range out {
		out[j] = make(map[NodeID]R, c.N())
		for i, p := range c.d.Peers {
			if hosted[i] == nil || hosted[i][j] == none || p.Halted() {
				continue
			}
			if r, ok := result(hosted[i][j], j); ok {
				out[j][NodeID(i)] = r
			}
		}
	}
	return out, nil
}

// BroadcastMany runs many ERB instances concurrently over one multiplexed
// runtime (runMany): every node hosts one lightweight engine per request.
// The i-th returned map holds every live node's decision for reqs[i],
// exactly as the i-th call of a serial Broadcast sequence would (same
// engines, same lockstep semantics; only the framing and the wall-clock
// change).
func (c *Cluster) BroadcastMany(reqs []BroadcastRequest, opts MuxOptions) ([]map[NodeID]BroadcastResult, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	for j, r := range reqs {
		if int(r.Initiator) >= c.N() {
			return nil, fmt.Errorf("sgxp2p: request %d initiator %d out of range", j, r.Initiator)
		}
	}
	return runMany(c, len(reqs), opts,
		func(inst *runtime.Instance, j int) (*erb.Engine, error) {
			eng, err := erb.NewEngine(inst, erb.Config{
				T:                  c.t,
				StartRound:         inst.StartRound(),
				ExpectedInitiators: []NodeID{reqs[j].Initiator},
			})
			if err == nil && inst.ID() == reqs[j].Initiator {
				eng.SetInput(reqs[j].Value)
			}
			return eng, err
		},
		func(eng *erb.Engine, j int) (BroadcastResult, bool) { return eng.Result(reqs[j].Initiator) })
}

// GenerateRandomMany runs count basic-ERNG epochs concurrently over one
// multiplexed runtime (runMany), exactly as BroadcastMany hosts ERB
// engines. Each epoch's contribution is drawn inside the enclave at that
// instance's admission round, so concurrent epochs stay independent and
// unbiased. The i-th returned map holds every live node's decision for
// epoch i, indexed by node id.
func (c *Cluster) GenerateRandomMany(count int, opts MuxOptions) ([]map[NodeID]RandomResult, error) {
	if count <= 0 {
		return nil, nil
	}
	return runMany(c, count, opts,
		func(inst *runtime.Instance, _ int) (*erng.Basic, error) {
			return erng.NewBasicAt(inst, c.t, inst.StartRound())
		},
		func(b *erng.Basic, _ int) (RandomResult, bool) { return b.Result() })
}

// BeaconMode selects the ERNG protocol behind a beacon.
type BeaconMode = beacon.Mode

// Beacon modes.
const (
	// BeaconBasic uses the unoptimized ERNG (t < N/2).
	BeaconBasic = beacon.ModeBasic
	// BeaconOptimized uses the cluster-sampled ERNG (t <= N/3).
	BeaconOptimized = beacon.ModeOptimized
)

// Beacon is a periodic random beacon service over the cluster.
type Beacon = beacon.Beacon

// NewBeacon builds a beacon service over the cluster.
func (c *Cluster) NewBeacon(mode BeaconMode) (*Beacon, error) {
	return beacon.New(c.d, beacon.Config{T: c.t, Mode: mode})
}

// GenerateRandom runs one basic-ERNG epoch and returns the common
// emission.
func (c *Cluster) GenerateRandom() (Emission, error) {
	b, err := c.NewBeacon(BeaconBasic)
	if err != nil {
		return Emission{}, err
	}
	return b.RunEpoch()
}

// ErrNoOutput is returned when an ERNG epoch produced bottom.
var ErrNoOutput = errors.New("sgxp2p: epoch produced no output")

// JoinOptions configures a dynamic join (the Appendix G extension).
type JoinOptions struct {
	// Sponsor is the existing node announcing the joiner via ERB.
	Sponsor NodeID
	// PuzzleDifficulty, when positive, makes admission cost a sybil
	// proof-of-work of ~2^difficulty hashes bound to the joiner's
	// attested identity.
	PuzzleDifficulty int
}

// Join admits a new node into the cluster: the joiner's enclave is
// launched and attested, the sponsor reliably broadcasts the join
// announcement through ERB, and on acceptance every node admits the
// newcomer's quote. Returns the new node's id.
func (c *Cluster) Join(opts JoinOptions) (NodeID, error) {
	return c.d.Join(deploy.JoinOptions{
		Sponsor:          opts.Sponsor,
		PuzzleDifficulty: opts.PuzzleDifficulty,
	})
}
