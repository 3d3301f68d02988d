package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"sgxp2p/internal/parallel"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/vclock"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// DeployOptions configures a baseline deployment.
type DeployOptions struct {
	// N is the network size, T the fault bound of the target protocol.
	N, T int
	// Delta is the delivery bound; rounds last 2*Delta. Defaults to 1s.
	Delta time.Duration
	// Bandwidth is the shared-link bandwidth (0 = unlimited).
	Bandwidth float64
	// Seed drives key generation and network jitter deterministically.
	Seed int64
	// PKI enables per-node Ed25519 keys (required by RBsig/SigRNG).
	PKI bool
	// Wrap, when non-nil, wraps each node's transport (omission-fault /
	// adversary injection, as in deploy.Options.Wrap).
	Wrap func(id wire.NodeID, tr runtime.Transport) runtime.Transport
}

// Deployment is a simulated network of plain (non-enclaved) peers.
type Deployment struct {
	Sim   *vclock.Sim
	Net   *simnet.Network
	Peers []*Peer
	// Keys holds each node's signing key when PKI is enabled. Exposed so
	// attack protocols can model collusion (key sharing).
	Keys []*xcrypto.SigningKey
	Opts DeployOptions
}

// NewDeployment builds a baseline deployment over the simulated network.
//
//lint:allow keyleak the baseline is the paper's non-TEE comparison; signing keys live outside any enclave by definition
func NewDeployment(opts DeployOptions) (*Deployment, error) {
	if opts.Delta <= 0 {
		opts.Delta = time.Second
	}
	sim := vclock.New()
	net, err := simnet.New(sim, simnet.Config{
		N:         opts.N,
		Delta:     opts.Delta,
		Bandwidth: opts.Bandwidth,
		Seed:      opts.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("baseline: network: %w", err)
	}
	d := &Deployment{Sim: sim, Net: net, Opts: opts}
	var roster Roster
	if opts.PKI {
		d.Keys = make([]*xcrypto.SigningKey, opts.N)
		roster.Keys = make([]xcrypto.VerifyKey, opts.N)
		err := parallel.ForEach(opts.N, func(i int) error {
			rng := rand.New(rand.NewSource(opts.Seed ^ int64(i+1)*0x51ED))
			key, kerr := xcrypto.GenerateSigningKey(rng)
			if kerr != nil {
				return fmt.Errorf("baseline: key %d: %w", i, kerr)
			}
			d.Keys[i] = key
			roster.Keys[i] = key.VerifyKey()
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	d.Peers = make([]*Peer, opts.N)
	for i := 0; i < opts.N; i++ {
		var sk *xcrypto.SigningKey
		if opts.PKI {
			sk = d.Keys[i]
		}
		var tr runtime.Transport = net.Port(wire.NodeID(i))
		if opts.Wrap != nil {
			tr = opts.Wrap(wire.NodeID(i), tr)
		}
		p, err := NewPeer(wire.NodeID(i), opts.N, opts.T, opts.Delta, tr, roster, sk)
		if err != nil {
			return nil, fmt.Errorf("baseline: peer %d: %w", i, err)
		}
		d.Peers[i] = p
	}
	return d, nil
}

// Run drains the simulation.
func (d *Deployment) Run() error { return d.Sim.Run() }
