// Package keyed derives every random stream a simulated deployment draws
// from as a function of what the stream is for: the deployment seed, a
// domain naming the stream's job, and an id within the domain (a node
// id, or 0 for a deployment-wide stream). Two streams of one deployment
// never share state, so a draw one of them makes — or stops making —
// moves no byte of another (DESIGN.md §8).
package keyed

import (
	"crypto/sha256"
	"encoding/binary"
	"math/rand/v2"
)

// Domain names what a stream is for. The domains below are every stream a
// deployment keys; a new job gets a new domain, never a reused one.
type Domain string

const (
	// Enclave is node id's enclave randomness (F2): its key pair, its
	// initial sequence number and every protocol draw.
	Enclave Domain = "enclave"
	// Attestation is the attestation service's signing key (id 0).
	Attestation Domain = "attestation"
	// Latency keys the simulated network's per-frame latency draw (id 0).
	Latency Domain = "simnet/latency"
	// OS is node id's operating system's own draws: corruption bits,
	// drain coins, forged bytes.
	OS Domain = "adversary/os"
	// Coin is a behaviour's coin (omit-p, epoch-p), keyed by the
	// behaviour's own seed (id 0), so every node the behaviour is set on
	// draws the same sequence.
	Coin Domain = "adversary/coin"
	// Signing is node id's signing key in the PKI baselines.
	Signing Domain = "baseline/signing"
)

// Seed returns the 32-byte ChaCha8 seed of the stream (seed, domain, id):
// SHA-256 over the domain, a zero byte, then seed and id as little-endian
// 64-bit words.
func Seed(seed int64, domain Domain, id uint64) [32]byte {
	buf := make([]byte, 0, 64)
	buf = append(append(buf, domain...), 0)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(seed))
	buf = binary.LittleEndian.AppendUint64(buf, id)
	return sha256.Sum256(buf)
}

// Stream returns a fresh ChaCha8 stream seeded with Seed(seed, domain, id).
func Stream(seed int64, domain Domain, id uint64) *rand.ChaCha8 {
	return rand.NewChaCha8(Seed(seed, domain, id))
}

// Key returns the first 64 bits of Seed(seed, domain, id): the key of a
// counter-based draw, which hashes its coordinates under it instead of
// advancing a stream.
func Key(seed int64, domain Domain, id uint64) uint64 {
	s := Seed(seed, domain, id)
	return binary.LittleEndian.Uint64(s[:8])
}
