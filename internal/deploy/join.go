package deploy

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"

	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/enclave"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/sybil"
	"sgxp2p/internal/wire"
)

// Join errors.
var (
	// ErrJoinRejected indicates the sponsor's ERB announcement was not
	// accepted by the network (byzantine sponsor, or partition).
	ErrJoinRejected = errors.New("deploy: join announcement not accepted")
	// ErrJoinPuzzle indicates a join attempt without a valid sybil
	// puzzle solution.
	ErrJoinPuzzle = errors.New("deploy: invalid sybil puzzle solution")
)

// JoinOptions configures one dynamic join.
type JoinOptions struct {
	// Sponsor is the existing node that announces the joiner via ERB.
	Sponsor wire.NodeID
	// PuzzleDifficulty, when positive, requires the joiner to solve a
	// sybil puzzle bound to its quote before the network admits it
	// (Appendix G, assumption S4).
	PuzzleDifficulty int
	// Wrap optionally wraps the new node's transport (byzantine joiner).
	Wrap TransportWrapper
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
// node is launched and attested, solves the sybil puzzle if required, a
// sponsor reliably broadcasts the (quote, seq) digest through ERB, and on
// acceptance every live node verifies the quote against the digest and
// admits the joiner. The joiner receives the membership and sequence
// table and becomes a full peer. Returns the new node's id.
func (d *Deployment) Join(opts JoinOptions) (wire.NodeID, error) {
	if int(opts.Sponsor) >= len(d.Peers) {
		return wire.NoNode, fmt.Errorf("deploy: sponsor %d out of range", opts.Sponsor)
	}
	if d.Peers[opts.Sponsor].Halted() {
		return wire.NoNode, fmt.Errorf("deploy: sponsor %d has been churned out", opts.Sponsor)
	}

	// Launch and attest the joiner's enclave.
	newID := d.Net.AddNode()
	rng := rand.New(rand.NewSource(d.Opts.Seed ^ int64(newID+1)*0x9E3779B9))
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

	// Sybil defence: the joiner pays for admission with a proof of work
	// bound to its attested identity.
	if opts.PuzzleDifficulty > 0 {
		puzzle := d.joinPuzzle(digest, opts.PuzzleDifficulty)
		nonce, perr := puzzle.Solve(0)
		if perr != nil {
			return wire.NoNode, fmt.Errorf("deploy: joiner could not solve puzzle: %w", perr)
		}
		// Every admitting node re-verifies (here once: the deployment is
		// the honest verifier the paper's peers each implement).
		if puzzle.Verify(nonce) != nil {
			return wire.NoNode, ErrJoinPuzzle
		}
	}

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
	var tr runtime.Transport = d.Net.Port(newID)
	if opts.Wrap != nil {
		// A wrapped transport is not goroutine-safe by contract.
		d.Net.DisableLanes()
		tr = opts.Wrap(newID, tr)
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

// joinPuzzle builds the admission puzzle for a joiner: the challenge is
// derived from the deployment seed and the current membership size, the
// binding is the joiner's quote digest.
func (d *Deployment) joinPuzzle(binding wire.Value, difficulty int) sybil.Puzzle {
	var p sybil.Puzzle
	h := sha256.New()
	h.Write([]byte("sgxp2p/join-challenge/"))
	var b [16]byte
	binary.LittleEndian.PutUint64(b[:8], uint64(d.Opts.Seed))
	binary.LittleEndian.PutUint64(b[8:], uint64(len(d.Peers)))
	h.Write(b[:])
	copy(p.Challenge[:], h.Sum(nil))
	p.Binding = binding[:]
	p.Difficulty = difficulty
	return p
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
