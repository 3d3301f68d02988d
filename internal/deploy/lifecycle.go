package deploy

import (
	"errors"
	"fmt"
	"math/rand"

	"sgxp2p/internal/channel"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/overlay"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// Lifecycle errors.
var (
	// ErrNotStopped indicates a Restart of a node that is still running.
	ErrNotStopped = errors.New("deploy: node is not stopped")
	// ErrNoLivePeer indicates a Restart with no live node left to copy
	// the sequence table from.
	ErrNoLivePeer = errors.New("deploy: no live peer to copy state from")
)

// newSealer returns a fresh sealer matching the deployment's crypto mode.
// Sealers hold per-link cipher state, so every peer needs its own.
func (d *Deployment) newSealer() channel.Sealer {
	if d.Opts.RealCrypto {
		return channel.RealSealer{}
	}
	return channel.NewModelSealer()
}

// peerConfig is the runtime configuration of one peer in a network of n
// nodes: the deployment's options plus a fresh sealer. New, Restart and
// Join all build their peers from it.
func (d *Deployment) peerConfig(n int) runtime.Config {
	return runtime.Config{
		N:               n,
		T:               d.Opts.T,
		Delta:           d.Opts.Delta,
		Sealer:          d.newSealer(),
		Trace:           d.Opts.Trace,
		Metrics:         d.Opts.Metrics,
		DisableBatching: d.Opts.DisableBatching,
	}
}

// buildTransport assembles one node's transport stack: network port, the
// optional adversary wrap, the optional overlay router on top. Used by
// New for the initial membership and by Restart to rebuild a crashed
// node's stack.
func (d *Deployment) buildTransport(id wire.NodeID) (runtime.Transport, error) {
	var tr runtime.Transport = d.Net.Port(id)
	if d.Opts.Wrap != nil {
		tr = d.Opts.Wrap(id, tr)
	}
	if d.Opts.Neighbors != nil {
		router, err := overlay.NewRouter(id, d.Opts.Neighbors(id, d.Opts.N), tr, 0)
		if err != nil {
			return nil, fmt.Errorf("deploy: overlay router %d: %w", id, err)
		}
		tr = router
	}
	return tr, nil
}

// KeyCacheLen returns the number of pairs one end of which has derived
// its session keys and left them in the deployment-wide cache for the
// other end to take (enclave.KeyCache): none once both ends of every used
// pair are open.
func (d *Deployment) KeyCacheLen() int {
	if d.keyCache == nil {
		return 0
	}
	return d.keyCache.Len()
}

// KeysDerived returns the number of key agreements the deployment's
// enclaves have computed: one per used pair, plus one for each pair whose
// two ends both missed the hand-over (side by side in EstablishLinks, or
// a restarted node re-deriving what its survivor already holds).
func (d *Deployment) KeysDerived() int {
	if d.keyCache == nil {
		return 0
	}
	return d.keyCache.Derived()
}

// Stop crashes a node: the machine goes away mid-protocol. The peer stops
// ticking rounds, the network drops its traffic in both directions, and —
// unlike a halted enclave (P4) — nothing is burned: the node may later be
// brought back with Restart. Stopping an already-stopped node is a no-op.
func (d *Deployment) Stop(id wire.NodeID) error {
	if int(id) >= len(d.Peers) {
		return fmt.Errorf("deploy: stop: node %d out of range", id)
	}
	if d.stopped[id] {
		return nil
	}
	d.Peers[id].Stop()
	d.Net.Detach(id)
	d.stopped[id] = true
	return nil
}

// Stopped reports whether a node is currently crashed.
func (d *Deployment) Stopped(id wire.NodeID) bool {
	return int(id) < len(d.stopped) && d.stopped[id]
}

// Restart brings a crashed node back: the machine reboots, relaunches its
// enclave and re-joins the network. Because the enclave's randomness
// derives deterministically from the deployment seed and the node id, the
// reboot replays the identical key material — the same X25519 keypair,
// hence the very same pairwise session keys, derived again for the pairs
// the survivors already hold their end of and taken over from the key
// cache for the rest — so the surviving nodes' blinded channels remain
// valid without any re-establishment. The re-attested quote is
// byte-identical for the same reason (Ed25519 signing is deterministic).
//
// The restarted peer copies the sequence table and instance counter from
// the lowest-id live node, exactly like a dynamic joiner (join.go), and
// participates again from the next epoch; it does not rejoin a protocol
// instance already in flight.
func (d *Deployment) Restart(id wire.NodeID) error {
	if int(id) >= len(d.Peers) {
		return fmt.Errorf("deploy: restart: node %d out of range", id)
	}
	if !d.stopped[id] {
		return ErrNotStopped
	}
	sponsor := -1
	for i, p := range d.Peers {
		if i != int(id) && !d.stopped[i] && !p.Halted() {
			sponsor = i
			break
		}
	}
	if sponsor < 0 {
		return ErrNoLivePeer
	}

	// Reboot: same seed, same rng stream, same enclave identity.
	rng := rand.New(rand.NewSource(d.Opts.Seed ^ int64(id+1)*0x9E3779B9))
	encl, err := enclave.Launch(DefaultProgram, id, rng, d.clock(id), d.enclaveOptions()...)
	if err != nil {
		return fmt.Errorf("deploy: restart enclave %d: %w", id, err)
	}
	quote := d.Service.Attest(encl)
	if verr := enclave.VerifyQuote(d.Roster.ServiceKey, d.Roster.Measurement, quote); verr != nil {
		return fmt.Errorf("deploy: restart attestation %d: %w", id, verr)
	}
	d.Roster.Quotes[id] = quote

	tr, err := d.buildTransport(id)
	if err != nil {
		return err
	}
	peer, err := runtime.NewPeer(encl, tr, d.Roster, d.peerConfig(d.Opts.N))
	if err != nil {
		return fmt.Errorf("deploy: restart peer %d: %w", id, err)
	}
	seqs := make([]uint64, d.Opts.N)
	for i := range seqs {
		seqs[i] = d.Peers[sponsor].SeqOf(wire.NodeID(i))
	}
	if err := peer.InstallSeqs(seqs); err != nil {
		return err
	}
	peer.AlignInstance(d.Peers[sponsor].Instance())

	d.Net.Reattach(id)
	d.Encls[id] = encl
	d.Peers[id] = peer
	d.stopped[id] = false
	return nil
}
