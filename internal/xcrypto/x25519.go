package xcrypto

import (
	"crypto/ecdh"
	"crypto/rand"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
)

// BatchLanes is how many agreements, key pairs or signature checks one
// call of a batch kernel (x25519_amd64.s, verify_amd64.go) computes side
// by side: a caller that collects work for DeriveSessionKeysBatch,
// GenerateKeyPairs or VerifyKey.VerifyBatch loses nothing by collecting
// this many.
const BatchLanes = 8

// x25519BatchMin is the fewest agreements a kernel call is worth: the call
// costs the same at any lane count, so a smaller group goes through
// crypto/ecdh one by one. BenchmarkX25519Batch on a 2-vCPU Xeon (Emerald
// Rapids, AVX-512 IFMA), medians of five: crypto/ecdh 43.4–44.5 µs per
// agreement at every lane count; the kernel 44.0, 22.4, 11.7 and 6.9 µs
// per agreement at 1, 2, 4 and 8 lanes. One lane breaks even, two halve
// the cost.
const x25519BatchMin = 2

// keyGenBatchMin is the fewest key pairs a kernel call is worth.
// BenchmarkGenerateKeyPairs on the same host, medians of five: crypto/ecdh
// 66–78 µs per key at every lane count (NewPrivateKey's ladder and the
// key's encoding); the kernel 59, 29.0, 13.9 and 7.1 µs per key at 1, 2,
// 4 and 8 lanes. One lane already costs less than crypto/ecdh.
const keyGenBatchMin = 1

// basePoint9 is the u-coordinate 9 of the X25519 base point.
var basePoint9 = [32]byte{0: 9}

// GenerateKeyPairs is GenerateKeyPair for every reader of rngs, in order:
// each reader gives exactly the 32 bytes GenerateKeyPair reads from it (a
// nil reader means crypto/rand), and kps[i] is the key pair
// GenerateKeyPair(rngs[i]) returns. Where the CPU has the kernel, the
// public keys [k]·9 of each group of up to eight readers cost one
// eight-lane ladder. If a reader fails, GenerateKeyPairs reads no further
// and returns the key pairs of the readers before it with the error
// GenerateKeyPair returns for it.
func GenerateKeyPairs(rngs []io.Reader) ([]*KeyPair, error) {
	return generateKeyPairs(rngs, keyGenBatchMin)
}

// generateKeyPairs is GenerateKeyPairs with the kernel taking every group
// of at least minLanes readers; the tests run it at BatchLanes+1 too.
func generateKeyPairs(rngs []io.Reader, minLanes int) ([]*KeyPair, error) {
	kps := make([]*KeyPair, 0, len(rngs))
	for len(rngs) > 0 {
		var (
			seeds [BatchLanes][32]byte
			err   error
			n     int
		)
		for _, rng := range rngs[:min(len(rngs), BatchLanes)] {
			if rng == nil {
				rng = rand.Reader
			}
			if _, rerr := io.ReadFull(rng, seeds[n][:]); rerr != nil {
				err = fmt.Errorf("xcrypto: X25519 key entropy: %w", rerr)
				break
			}
			n++
		}
		if n > 0 && haveX25519Kernel && n >= minLanes {
			// A clamped scalar is a nonzero multiple of 8 below 2^255 and
			// 9 generates the subgroup of prime order L > 2^252, so no
			// public key is the all-zero one.
			sched := laneSchedule(&seeds)
			var points, pubs [BatchLanes][32]byte
			for i := range n {
				points[i] = basePoint9
			}
			x25519Kernel(&sched, points[:n], pubs[:n])
			for i := range n {
				kps = append(kps, &KeyPair{pub: pubs[i], scalar: seeds[i]})
			}
		} else {
			for i := range n {
				priv, perr := ecdh.X25519().NewPrivateKey(seeds[i][:])
				if perr != nil {
					return kps, fmt.Errorf("xcrypto: generate X25519 key: %w", perr)
				}
				kp := &KeyPair{scalar: seeds[i]}
				kp.priv.Store(priv)
				copy(kp.pub[:], priv.PublicKey().Bytes())
				kps = append(kps, kp)
			}
		}
		if err != nil {
			return kps, err
		}
		rngs = rngs[n:]
	}
	return kps, nil
}

// DeriveSessionKeysBatch is DeriveSessionKeys toward every key of remotes:
// keys[i] and errs[i] are what DeriveSessionKeys(remotes[i]) returns, byte
// for byte and error for error. keys and errs must be at least as long as
// remotes. Where the CPU has the kernel, each group of up to eight remote
// keys costs one eight-lane ladder.
func (kp *KeyPair) DeriveSessionKeysBatch(remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error) {
	kp.deriveBatch(remotes, keys, errs, x25519BatchMin)
}

// deriveBatch is DeriveSessionKeysBatch with the kernel taking every group
// of at least minLanes keys; the tests run it at 1. It returns how many
// agreements the kernel computed.
func (kp *KeyPair) deriveBatch(remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error, minLanes int) (kernelLanes int) {
	// Every lane climbs by the one private scalar, so one schedule serves
	// every group.
	locals := [BatchLanes]*KeyPair{kp, kp, kp, kp, kp, kp, kp, kp}
	var sched *[256]uint8
	if haveX25519Kernel && len(remotes) >= minLanes {
		lanes := [BatchLanes][32]byte{kp.scalar, kp.scalar, kp.scalar, kp.scalar, kp.scalar, kp.scalar, kp.scalar, kp.scalar}
		s := laneSchedule(&lanes)
		sched = &s
	}
	for len(remotes) > 0 {
		n := min(len(remotes), BatchLanes)
		kernelLanes += derivePairs(locals[:n], remotes[:n], keys, errs, minLanes, sched)
		remotes, keys, errs = remotes[n:], keys[n:], errs[n:]
	}
	return kernelLanes
}

// DeriveSessionKeysPairs is DeriveSessionKeys for pairs whose local key
// pairs differ: keys[i] and errs[i] are what
// locals[i].DeriveSessionKeys(remotes[i]) returns, byte for byte and
// error for error. keys and errs must be at least as long as remotes, and
// locals as long. Where the CPU has the kernel, each group of up to eight
// pairs costs one eight-lane ladder, each lane climbing by its own pair's
// scalar: the schedule and kernel GenerateKeyPairs runs.
func DeriveSessionKeysPairs(locals []*KeyPair, remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error) {
	derivePairs(locals, remotes, keys, errs, x25519BatchMin, nil)
}

// derivePairs is DeriveSessionKeysPairs with the kernel taking every group
// of at least minLanes pairs; the tests run it at 1. A non-nil sched is
// the lane schedule of every group, for callers whose lanes all carry one
// scalar; nil builds each group's from locals. It returns how many
// agreements the kernel computed.
func derivePairs(locals []*KeyPair, remotes [][PublicKeySize]byte, keys []SessionKeys, errs []error, minLanes int, sched *[256]uint8) (kernelLanes int) {
	var lanes, shared [BatchLanes][32]byte
	for len(remotes) > 0 {
		n := min(len(remotes), BatchLanes)
		kernel := haveX25519Kernel && n >= minLanes
		if kernel {
			s := sched
			if s == nil {
				for i, kp := range locals[:n] {
					lanes[i] = kp.scalar
				}
				built := laneSchedule(&lanes)
				s = &built
			}
			x25519Kernel(s, remotes[:n], shared[:n])
			kernelCalls.Add(1)
			kernelAgreements.Add(uint64(n))
			kernelLanes += n
		}
		for i, kp := range locals[:n] {
			// A low-order remote key gives the all-zero secret; crypto/ecdh
			// then says why in its own words.
			if !kernel || shared[i] == [32]byte{} {
				keys[i], errs[i] = kp.DeriveSessionKeys(remotes[i])
			} else {
				keys[i], errs[i] = kp.sessionKeys(shared[i][:], &remotes[i]), nil
			}
		}
		locals, remotes, keys, errs = locals[n:], remotes[n:], keys[n:], errs[n:]
	}
	clear(lanes[:])
	clear(shared[:])
	return kernelLanes
}

// X25519Kernel reports whether this build and CPU run the eight-lane
// ladder: where not, every agreement goes through crypto/ecdh.
func X25519Kernel() bool { return haveX25519Kernel }

// Process-wide counts of the X25519 agreements computed, by path
// (Agreements).
var kernelCalls, kernelAgreements, ecdhAgreements atomic.Uint64

// AgreementCounts is how the agreements a process computed were computed:
// KernelCalls eight-lane kernel calls, which computed KernelAgreements of
// them, and ECDH through crypto/ecdh one at a time.
type AgreementCounts struct {
	KernelCalls, KernelAgreements, ECDH uint64
}

// Agreements returns the process's AgreementCounts so far. Key pair
// generation is not an agreement and is not counted.
func Agreements() AgreementCounts {
	return AgreementCounts{KernelCalls: kernelCalls.Load(), KernelAgreements: kernelAgreements.Load(), ECDH: ecdhAgreements.Load()}
}

// laneSchedule clamps the eight scalars and lays them out for the ladder:
// bit l of byte i is bit i of lane l's clamped scalar, so the ladder's
// step i swaps exactly the lanes whose bit differs from bit i+1. Each byte
// position's eight bytes, one per lane, are an 8×8 bit matrix, transposed
// by shifts and masks: no branch or index depends on a scalar. Eight
// copies of one scalar give the bytes 0x00 and 0xff.
func laneSchedule(scalars *[BatchLanes][32]byte) (sched [256]uint8) {
	for j := range 32 {
		var x uint64
		for lane := range BatchLanes {
			x |= uint64(scalars[lane][j]) << (8 * lane)
		}
		switch j {
		case 0:
			x &= 0xf8f8f8f8f8f8f8f8
		case 31:
			x = x&0x7f7f7f7f7f7f7f7f | 0x4040404040404040
		}
		binary.LittleEndian.PutUint64(sched[8*j:], transpose8(x))
	}
	return sched
}

// transpose8 transposes x as an 8×8 bit matrix whose row r is byte r and
// whose column c is bit c of each byte, by three rounds of swapping the
// off-diagonal halves of 2×2, 4×4 and 8×8 blocks.
func transpose8(x uint64) uint64 {
	t := (x ^ x>>7) & 0x00aa00aa00aa00aa
	x ^= t ^ t<<7
	t = (x ^ x>>14) & 0x0000cccc0000cccc
	x ^= t ^ t<<14
	t = (x ^ x>>28) & 0x00000000f0f0f0f0
	return x ^ t ^ t<<28
}
