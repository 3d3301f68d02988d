// Package beacon implements the first application of the paper's
// Appendix H: a random beacon service. A beacon periodically emits a
// common unbiased random value that no participant could predict or bias
// — the primitive behind lotteries, leader election and committee
// sampling (internal/committee).
//
// Each beacon epoch is one ERNG instance (basic or optimized) over a
// deployment; after the epoch, sequence numbers advance (P6), so replays
// from earlier epochs are worthless.
package beacon

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"sgxp2p/internal/core/erng"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// Source produces successive common random values. The downstream
// applications consume this interface so they can run on a live beacon or
// on a recorded trace.
type Source interface {
	// Next produces the next epoch's common random value.
	Next() (wire.Value, error)
}

// Mode selects the underlying ERNG protocol.
type Mode int

// Beacon modes.
const (
	// ModeBasic runs the unoptimized ERNG (t < N/2).
	ModeBasic Mode = iota + 1
	// ModeOptimized runs the cluster-sampled ERNG (t <= N/3).
	ModeOptimized
)

// Config parametrizes a beacon service.
type Config struct {
	// T is the byzantine bound.
	T int
	// Mode selects the protocol; defaults to ModeBasic.
	Mode Mode
}

// Emission is one beacon output.
type Emission struct {
	// Epoch is the instance number of the emitting ERNG run.
	Epoch uint32
	// OK is false when the epoch produced bottom.
	OK bool
	// Value is the emitted random value.
	Value wire.Value
	// Contributors lists the nodes whose entropy entered the output.
	Contributors []wire.NodeID
	// At is the virtual time of the emission.
	At time.Duration
	// Prev chains this emission to its predecessor (the digest of the
	// previous emission, zero for the first), making the beacon history
	// an append-only verifiable chain like the NIST randomness beacon
	// the paper cites.
	Prev wire.Value
	// Digest commits to this emission: H(epoch, value, prev).
	Digest wire.Value
}

// digestEmission computes an emission's chain commitment.
func digestEmission(e Emission) wire.Value {
	h := sha256.New()
	h.Write([]byte("sgxp2p/beacon-chain/v1/"))
	var eb [4]byte
	binary.LittleEndian.PutUint32(eb[:], e.Epoch)
	h.Write(eb[:])
	if e.OK {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	h.Write(e.Value[:])
	h.Write(e.Prev[:])
	var out wire.Value
	copy(out[:], h.Sum(nil))
	return out
}

// VerifyChain checks that a recorded beacon history is an unbroken
// hash chain: every emission commits to its predecessor and its digest is
// consistent. It returns the index of the first broken link, or -1.
func VerifyChain(history []Emission) int {
	var prev wire.Value
	for i, e := range history {
		if e.Prev != prev {
			return i
		}
		if digestEmission(e) != e.Digest {
			return i
		}
		prev = e.Digest
	}
	return -1
}

// Errors returned by the beacon.
var (
	// ErrDisagreement indicates honest nodes decided different values —
	// a protocol violation that should be impossible; surfaced rather
	// than silently picking one.
	ErrDisagreement = errors.New("beacon: honest nodes disagree")
	// ErrBottom indicates the epoch output bottom.
	ErrBottom = errors.New("beacon: epoch produced no output")
)

// Beacon drives beacon epochs over a deployment. It implements Source.
type Beacon struct {
	d       *deploy.Deployment
	cfg     Config
	history []Emission
}

// New builds a beacon service over an existing deployment.
func New(d *deploy.Deployment, cfg Config) (*Beacon, error) {
	if d == nil {
		return nil, errors.New("beacon: nil deployment")
	}
	if cfg.Mode == 0 {
		cfg.Mode = ModeBasic
	}
	if cfg.T < 0 || 2*cfg.T+1 > len(d.Peers) {
		return nil, fmt.Errorf("beacon: invalid byzantine bound %d for N=%d", cfg.T, len(d.Peers))
	}
	return &Beacon{d: d, cfg: cfg}, nil
}

// History returns all emissions so far.
func (b *Beacon) History() []Emission {
	return append([]Emission(nil), b.history...)
}

// Next implements Source: run one epoch and return its value.
func (b *Beacon) Next() (wire.Value, error) {
	e, err := b.RunEpoch()
	if err != nil {
		return wire.Value{}, err
	}
	if !e.OK {
		return wire.Value{}, ErrBottom
	}
	return e.Value, nil
}

// RunEpoch executes one full ERNG instance across the deployment,
// verifies that every honest (non-halted) node decided identically, and
// records the emission.
func (b *Beacon) RunEpoch() (Emission, error) {
	protos, err := b.d.Epoch(b.cfg.T, b.cfg.Mode == ModeOptimized, nil)
	if err != nil {
		return Emission{}, fmt.Errorf("beacon: epoch: %w", err)
	}

	var (
		have   bool
		common erng.Result
		epoch  uint32
	)
	for i, proto := range protos {
		if proto == nil || b.d.Peers[i].Halted() {
			continue
		}
		res, ok := proto.Result()
		if !ok {
			return Emission{}, fmt.Errorf("beacon: node %d undecided", i)
		}
		if !have {
			common = res
			have = true
			// The instance is closed: the counters stand one past it.
			epoch = b.d.Peers[i].Instance() - 1
			continue
		}
		if res.OK != common.OK || res.Value != common.Value {
			return Emission{}, ErrDisagreement
		}
	}
	if !have {
		return Emission{}, errors.New("beacon: no live nodes")
	}
	e := Emission{
		Epoch:        epoch,
		OK:           common.OK,
		Value:        common.Value,
		Contributors: common.Contributors,
		At:           common.At,
	}
	if n := len(b.history); n > 0 {
		e.Prev = b.history[n-1].Digest
	}
	e.Digest = digestEmission(e)
	b.history = append(b.history, e)
	return e, nil
}

// RunEpochs runs k consecutive epochs, stopping at the first error.
func (b *Beacon) RunEpochs(k int) ([]Emission, error) {
	out := make([]Emission, 0, k)
	for i := 0; i < k; i++ {
		e, err := b.RunEpoch()
		if err != nil {
			return out, err
		}
		out = append(out, e)
	}
	return out, nil
}
