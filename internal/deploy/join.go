package deploy

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/keyed"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
)

// Join errors.
var (
	// ErrJoinRejected indicates the sponsor's ERB announcement was not
	// accepted by the network (byzantine sponsor, or partition).
	ErrJoinRejected = errors.New("deploy: join announcement not accepted")
	// ErrJoinOverlay indicates a join into a sparse-overlay deployment:
	// every router took its adjacency at New, so no existing node would
	// link to the joiner.
	ErrJoinOverlay = errors.New("deploy: join is not supported over a sparse overlay")
)

// JoinOptions configures one dynamic join.
type JoinOptions struct {
	// Sponsor is the existing node that announces the joiner via ERB.
	Sponsor wire.NodeID
}

// quoteDigest canonically hashes a joiner's quote and initial sequence
// number — the value the sponsor reliably broadcasts (the join pair of
// Appendix G).
func quoteDigest(q enclave.Quote, seq uint64) wire.Value {
	h := sha256.New()
	h.Write([]byte("sgxp2p/join/v1/"))
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(q.NodeID))
	h.Write(idb[:])
	h.Write(q.Measurement[:])
	h.Write(q.DHPublic[:])
	h.Write(q.Signature)
	var sb [8]byte
	binary.LittleEndian.PutUint64(sb[:], seq)
	h.Write(sb[:])
	var out wire.Value
	copy(out[:], h.Sum(nil))
	return out
}

// Join implements the dynamic-membership extension of Appendix G: a new
// node is launched and attested, a sponsor reliably broadcasts the
// (quote, seq) digest through ERB, and on acceptance every live node
// verifies the quote against the digest and admits the joiner. The joiner
// receives the membership and sequence table and becomes a full peer.
// Returns the new node's id; its OS (OS) is honest until a behaviour is
// Set on it. A deployment over a sparse overlay refuses with
// ErrJoinOverlay before anything is launched.
func (d *Deployment) Join(opts JoinOptions) (wire.NodeID, error) {
	if d.Opts.Neighbors != nil {
		return wire.NoNode, ErrJoinOverlay
	}
	if int(opts.Sponsor) >= len(d.Peers) {
		return wire.NoNode, fmt.Errorf("deploy: sponsor %d out of range", opts.Sponsor)
	}
	if d.Peers[opts.Sponsor].Halted() {
		return wire.NoNode, fmt.Errorf("deploy: sponsor %d has been churned out", opts.Sponsor)
	}

	// Launch and attest the joiner's enclave.
	newID := d.Net.AddNode()
	rng := keyed.Stream(d.Opts.Seed, keyed.Enclave, uint64(newID))
	encl, err := enclave.Launch(DefaultProgram, newID, rng, d.clock(newID), d.enclaveOptions()...)
	if err != nil {
		return wire.NoNode, fmt.Errorf("deploy: joiner enclave: %w", err)
	}
	quote := d.Service.Attest(encl)
	seq, err := encl.RandomSeq()
	if err != nil {
		return wire.NoNode, err
	}
	digest := quoteDigest(quote, seq)

	// The sponsor reliably broadcasts the join pair to the current
	// membership: a join is an ordinary instance of the broadcast.
	engines, err := d.Broadcast(erb.Config{T: d.Opts.T, ExpectedInitiators: []wire.NodeID{opts.Sponsor}}, digest, nil)
	if err != nil {
		return wire.NoNode, err
	}

	// Admission: nodes whose broadcast decision matched the digest verify
	// the quote and extend their membership. The join instance is closed,
	// so they record the joiner where it bumped everyone to: at seq+1.
	admitted := 0
	for i, eng := range engines {
		if eng == nil {
			continue
		}
		res, ok := eng.Result(opts.Sponsor)
		if !ok || !res.Accepted || res.Value != digest {
			continue
		}
		if aerr := d.Peers[i].AddPeer(d.Roster, quote, seq+1); aerr != nil {
			return wire.NoNode, fmt.Errorf("deploy: node %d admit: %w", i, aerr)
		}
		admitted++
	}
	if admitted == 0 {
		return wire.NoNode, ErrJoinRejected
	}

	// Build the joiner's peer with the full roster and the post-bump
	// sequence table copied from the sponsor's enclave state.
	newRoster := d.Roster
	newRoster.Quotes = append(append([]enclave.Quote(nil), d.Roster.Quotes...), quote)
	tr, err := d.buildTransport(newID)
	if err != nil {
		return wire.NoNode, err
	}
	peer, err := runtime.NewPeer(encl, tr, newRoster, d.peerConfig(len(newRoster.Quotes)))
	if err != nil {
		return wire.NoNode, fmt.Errorf("deploy: joiner peer: %w", err)
	}
	seqs := make([]uint64, len(newRoster.Quotes))
	for i := range d.Peers {
		seqs[i] = d.Peers[opts.Sponsor].SeqOf(wire.NodeID(i))
	}
	seqs[newID] = seq + 1
	if err := peer.InstallSeqs(seqs); err != nil {
		return wire.NoNode, err
	}
	peer.AlignInstance(d.Peers[opts.Sponsor].Instance())

	d.Roster = newRoster
	d.Encls = append(d.Encls, encl)
	d.Peers = append(d.Peers, peer)
	d.stopped = append(d.stopped, false)
	d.Opts.N++
	return newID, nil
}

// enclaveOptions is the option set every enclave of the deployment is
// launched with (New, Restart, Join): the crypto mode, and the
// deployment-wide key cache so a joiner's N link derivations reuse the
// halves already computed by the existing members.
func (d *Deployment) enclaveOptions() []enclave.Option {
	opts := []enclave.Option{}
	if d.keyCache != nil {
		opts = append(opts, enclave.WithKeyCache(d.keyCache))
	}
	if !d.Opts.RealCrypto {
		opts = append(opts, enclave.WithModelKEX())
	}
	return opts
}
