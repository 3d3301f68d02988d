// Package deploy assembles complete simulated deployments: a virtual-time
// simulator, a simulated network with the paper's shared-link bandwidth
// model, one enclave plus peer runtime per node, attestation quotes for
// the roster, and the executed setup phase. It is the single entry point
// used by the protocol tests, the experiment harness and the public
// facade, so every consumer runs on an identically constructed testbed —
// and through one instance lifecycle: RunInstance (instance.go) starts the
// peers of every protocol instance they run and closes it.
//
// Setup here is admission: every enclave is launched and attested, the
// whole roster verified, sequence numbers exchanged. The paper's Section
// 4.1 also opens every pairwise channel at that point; New opens none. A
// pair's PeerCh_sgx.Init runs at its first frame, or — all missing pairs
// at once, on every core — in EstablishLinks, which RunInstance calls
// ahead of every instance but a sampled Algorithm 6 epoch. The keys are
// a function of the attested pair, so when they are derived shows in no
// frame, trace or figure.
//
// A deployment's nodes may fire side by side: unless an option says
// otherwise (see lanesSafe), Run hands the nodes of one network-latency
// window to GOMAXPROCS goroutines (DESIGN.md §6). Nothing a run computes
// depends on that, but a runtime.Protocol started on one peer must touch
// only that peer's state — the shipped protocols do — and code that
// looks across peers belongs between runs or in an event scheduled on
// Sim directly, which fires alone.
package deploy

import (
	"fmt"
	"math/rand"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/parallel"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// DefaultProgram is the canonical protocol program identity measured into
// every enclave. Changing the protocol version changes the measurement and
// therefore isolates incompatible deployments (property P1).
var DefaultProgram = []byte("sgxp2p/erb+erng/v1")

// TransportWrapper intercepts a node's transport, the hook through which
// byzantine OS behaviour (internal/adversary) is injected. It receives the
// node id and the genuine transport and returns the transport the peer
// runtime will actually use.
type TransportWrapper func(id wire.NodeID, tr runtime.Transport) runtime.Transport

// Options configures a deployment.
type Options struct {
	// N is the network size, T the byzantine bound.
	N, T int
	// Delta is the one-way delivery bound; rounds last 2*Delta.
	// Defaults to 1 second, the paper's honest-case scale.
	Delta time.Duration
	// Bandwidth is the shared-link bandwidth in bytes/second.
	// Zero means unlimited; use simnet.DefaultBandwidth (128 MB/s) to
	// match the paper's testbed.
	Bandwidth float64
	// Seed makes the whole deployment deterministic: network jitter and
	// every enclave's randomness derive from it. Seed 0 is valid.
	Seed int64
	// RealCrypto selects the real AES+HMAC sealer instead of the
	// size-identical model sealer. Experiments default to the model
	// sealer; protocol-equivalence is proven in internal/channel tests.
	RealCrypto bool
	// Wrap, when non-nil, wraps each node's transport (adversary hook).
	// With Neighbors set, the wrap sits at the physical layer, below the
	// overlay router — a byzantine OS there can also drop frames it was
	// supposed to forward for others.
	Wrap TransportWrapper
	// Neighbors, when non-nil, replaces the full mesh of assumption S5
	// with a sparse overlay (Appendix G): node id may exchange frames
	// only with Neighbors(id, n), and all protocol traffic is flooded
	// through the overlay (internal/overlay).
	Neighbors func(id wire.NodeID, n int) []wire.NodeID
	// LinkDelta is the per-hop delivery bound of the sparse overlay
	// (defaults to Delta). The lockstep round bound Delta must cover the
	// overlay diameter times LinkDelta; see overlay.Diameter.
	LinkDelta time.Duration
	// Trace, when non-nil, receives the round-structured event stream of
	// every peer and the network (churn, round ticks, deliveries). New
	// binds its clock to the simulator, so events carry virtual time.
	Trace *telemetry.Tracer
	// Metrics, when non-nil, is the registry all layers (runtime, channel,
	// transport) register their counters into.
	Metrics *telemetry.Metrics
	// DisableBatching turns off per-round frame coalescing in every
	// peer's runtime (see runtime.Config.DisableBatching): messages are
	// sealed and sent one envelope each, byte-identical to the
	// pre-coalescing wire behaviour.
	DisableBatching bool
}

// Deployment is a fully wired simulated network of peers.
type Deployment struct {
	Sim     *vclock.Sim
	Net     *simnet.Network
	Service *enclave.AttestationService
	Roster  runtime.Roster
	Encls   []*enclave.Enclave
	Peers   []*runtime.Peer
	Opts    Options

	// stopped marks nodes taken down by Stop (crashed machines), as
	// opposed to halted enclaves (P4 churn). See lifecycle.go.
	stopped []bool

	// keyCache hands pairwise session keys across the enclaves of the
	// deployment: the (i,j) and (j,i) link derivations are symmetric, so
	// whichever end opens the pair first derives for both and the other
	// takes the keys out. Joining and restarted nodes (join.go,
	// lifecycle.go) go through it too.
	keyCache *enclave.KeyCache
}

// clock is the trusted-time source of node id's enclave: the node's port,
// whose Now is the time of the node's own firing event — the simulator's
// clock, except that nodes firing side by side in one lookahead window
// each read their own event's time.
func (d *Deployment) clock(id wire.NodeID) enclave.Clock { return d.Net.Port(id) }

// lanesSafe reports whether the nodes of this deployment may fire side by
// side (simnet.EnableLanes). Caller-supplied Wrap and Neighbors closures
// are not goroutine-safe by contract, and with Trace or Metrics the order
// in which nodes record is itself the output, so any of the four keeps
// every event firing alone.
func (o *Options) lanesSafe() bool {
	return o.Wrap == nil && o.Neighbors == nil && o.Trace == nil && o.Metrics == nil
}

// New builds a deployment and runs the setup phase: attestation of the
// whole roster and the sequence-number exchange. Channels are opened
// afterwards, by the instances that use them (EstablishLinks).
func New(opts Options) (*Deployment, error) {
	if opts.N < 2 {
		return nil, fmt.Errorf("deploy: need at least 2 nodes, got %d", opts.N)
	}
	if opts.T < 0 || 2*opts.T+1 > opts.N {
		return nil, fmt.Errorf("deploy: byzantine bound t=%d violates N >= 2t+1 for N=%d", opts.T, opts.N)
	}
	if opts.Delta <= 0 {
		opts.Delta = time.Second
	}

	linkDelta := opts.Delta
	if opts.Neighbors != nil && opts.LinkDelta > 0 {
		linkDelta = opts.LinkDelta
	}
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{
		N:         opts.N,
		Delta:     linkDelta,
		Bandwidth: opts.Bandwidth,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("deploy: network: %w", err)
	}
	opts.Trace.SetClock(sim.Now)
	net.SetTelemetry(opts.Trace, opts.Metrics)
	if opts.lanesSafe() {
		net.EnableLanes()
	}

	masterRNG := rand.New(rand.NewSource(opts.Seed ^ 0x5eed))
	service, err := enclave.NewAttestationService(masterRNG)
	if err != nil {
		return nil, fmt.Errorf("deploy: attestation service: %w", err)
	}

	d := &Deployment{
		Sim:     sim,
		Net:     net,
		Service: service,
		Encls:   make([]*enclave.Enclave, opts.N),
		Peers:   make([]*runtime.Peer, opts.N),
		Opts:    opts,
		stopped: make([]bool, opts.N),
	}
	d.Roster = runtime.Roster{
		Quotes:      make([]enclave.Quote, opts.N),
		ServiceKey:  service.VerifyKey(),
		Measurement: xcrypto.Measure(DefaultProgram),
	}

	d.keyCache = enclave.NewKeyCache()
	enclOpts := d.enclaveOptions()
	// Phase 1 (parallel): launch and attest every enclave. Each enclave
	// draws only from its own seeded RNG and writes index-distinct slots,
	// so the result is independent of the pool size.
	err = parallel.ForEach(opts.N, func(id int) error {
		rng := rand.New(rand.NewSource(opts.Seed ^ int64(id+1)*0x9E3779B9))
		encl, lerr := enclave.Launch(DefaultProgram, wire.NodeID(id), rng, d.clock(wire.NodeID(id)), enclOpts...)
		if lerr != nil {
			return fmt.Errorf("deploy: enclave %d: %w", id, lerr)
		}
		d.Encls[id] = encl
		d.Roster.Quotes[id] = service.Attest(encl)
		return nil
	})
	if err != nil {
		return nil, err
	}
	// Phase 2 (parallel): verify the whole roster once here instead of
	// once per peer — the simulated deployment shares one process, so N^2
	// re-verifications of identical quotes would only burn CPU.
	err = parallel.ForEach(opts.N, func(id int) error {
		if verr := enclave.VerifyQuote(d.Roster.ServiceKey, d.Roster.Measurement, d.Roster.Quotes[id]); verr != nil {
			return fmt.Errorf("deploy: attestation of node %d: %w", id, verr)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.Roster.PreVerified = true

	// Phase 3 (serial): build the transports and the peers on them.
	// Caller-supplied Wrap and Neighbors closures are not required to be
	// goroutine-safe (adversary wrappers routinely capture shared mutable
	// state), and a peer opens no channel here, so there is nothing to
	// spread: the O(N^2) Diffie-Hellman work is EstablishLinks'.
	for id := 0; id < opts.N; id++ {
		tr, terr := d.buildTransport(wire.NodeID(id))
		if terr != nil {
			return nil, terr
		}
		if d.Peers[id], err = runtime.NewPeer(d.Encls[id], tr, d.Roster, d.peerConfig(opts.N)); err != nil {
			return nil, fmt.Errorf("deploy: peer %d: %w", id, err)
		}
	}

	if err := runtime.Setup(d.Peers); err != nil {
		return nil, fmt.Errorf("deploy: setup: %w", err)
	}
	return d, nil
}

// EstablishLinks opens every channel the live peers have not used yet,
// a peer per worker: the shared key cache means an unordered pair is
// derived once (twice when its two ends ask at the same moment, see
// KeysDerived), and the pool spreads the rest across cores. RunInstance
// calls it ahead of a full-mesh instance, which would otherwise derive
// every pair in turn on the simulator's goroutine in its first rounds;
// with nothing missing it is one pass over the peers.
func (d *Deployment) EstablishLinks() error {
	var cold []*runtime.Peer
	for id, p := range d.Peers {
		if !d.stopped[id] && !p.Halted() && p.Stats().LinksEstablished < uint64(p.N()-1) {
			cold = append(cold, p)
		}
	}
	if cold == nil {
		return nil
	}
	return parallel.ForEach(len(cold), func(i int) error { return cold[i].EstablishLinks() })
}

// LinksEstablished is the number of link ends the deployment's current
// peers hold: N(N-1) once every pair has been used from both sides.
func (d *Deployment) LinksEstablished() int {
	total := 0
	for _, p := range d.Peers {
		total += int(p.Stats().LinksEstablished)
	}
	return total
}

// Run drains the simulation.
func (d *Deployment) Run() error {
	return d.Sim.Run()
}

// RoundDuration returns the lockstep round length, 2*Delta.
func (d *Deployment) RoundDuration() time.Duration {
	return 2 * d.Opts.Delta
}
