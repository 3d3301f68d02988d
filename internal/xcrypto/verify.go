package xcrypto

import "crypto/ed25519"

// verifyBatchMin is the fewest signatures a kernel call is worth: below
// it, crypto/ed25519 checks them one by one. BenchmarkVerifyBatch on a
// 2-vCPU Xeon (Emerald Rapids, AVX-512 IFMA), medians of five:
// crypto/ed25519 78–107 µs per signature at every lane count; the kernel
// 128, 64, 32 and 17 µs per signature at 1, 2, 4 and 8 lanes, each call
// also decoding the key and building its table. Two lanes already win.
const verifyBatchMin = 2

// orderLBytes is the order L = 2^252 + 27742317777372353535851937790883648493
// of the Ed25519 base point, little-endian.
var orderLBytes = [32]byte{
	0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14,
	31: 0x10,
}

// VerifyBatch checks every signature against the key: ok[i] is what
// Verify(msgs[i], sigs[i]) == nil is, which for a 32-byte key is what
// ed25519.Verify says. ok must be at least as long as msgs, and sigs as
// long. Where the CPU has the IFMA kernels (the X25519 ladder's, under
// the same detection), each group of up to eight signatures costs one
// eight-lane computation of [S]B + [k](-A), the key decoded and its table
// built once per call; anything outside that path's domain — a key that
// does not decode, a build or CPU without the kernels, a group smaller
// than verifyBatchMin — goes to ed25519.Verify.
func (vk VerifyKey) VerifyBatch(msgs, sigs [][]byte, ok []bool) {
	vk.verifyBatch(msgs, sigs, ok, verifyBatchMin)
}

// verifyBatch is VerifyBatch with the kernel taking every group of at
// least minLanes signatures; the tests run it at 1. It returns how many
// signatures the kernel checked.
func (vk VerifyKey) verifyBatch(msgs, sigs [][]byte, ok []bool, minLanes int) (kernelLanes int) {
	if len(vk.pub) != ed25519.PublicKeySize {
		for i := range msgs {
			ok[i] = false
		}
		return 0
	}
	var (
		v     *verifier
		tried bool
	)
	for len(msgs) > 0 {
		n := min(len(msgs), BatchLanes)
		if haveX25519Kernel && n >= minLanes && !tried {
			v, tried = newVerifier(vk.pub), true
		}
		if v != nil && n >= minLanes {
			v.verify(msgs[:n], sigs[:n], ok[:n])
			kernelLanes += n
		} else {
			for i := range n {
				ok[i] = ed25519.Verify(vk.pub, msgs[i], sigs[i])
			}
		}
		msgs, sigs, ok = msgs[n:], sigs[n:], ok[n:]
	}
	return kernelLanes
}
