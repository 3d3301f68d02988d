//go:build !purego

package xcrypto

import "math/bits"

// The AES-256-CTR keystream kernel (ctr_amd64.s): the counter blocks of up
// to eight keystream blocks are built and encrypted together, so the AES
// unit has eight independent rounds in flight where one Block.Encrypt per
// 16 bytes has each round wait for the one before it.

//go:noescape
func ctrBlocks1Asm(xk *[60]uint32, dst, src *[16]byte, ivlo, ivhi uint64)

//go:noescape
func ctrBlocks2Asm(xk *[60]uint32, dst, src *[32]byte, ivlo, ivhi uint64)

//go:noescape
func ctrBlocks4Asm(xk *[60]uint32, dst, src *[64]byte, ivlo, ivhi uint64)

//go:noescape
func ctrBlocks8Asm(xk *[60]uint32, dst, src *[128]byte, ivlo, ivhi uint64)

//go:noescape
func expandKeyAsm(key *[KeySize]byte, enc *[60]uint32)

func cpuid1ECX() uint32

// kernelFeatures are the CPUID leaf 1 ECX bits the kernel needs: 25
// (AES-NI), 19 (SSE4.1, for PINSRQ) and 9 (SSSE3, for PSHUFB).
const kernelFeatures = 1<<25 | 1<<19 | 1<<9

// haveCTRKernel is the one choice between the two CTR paths, made here
// from what the CPU reports.
var haveCTRKernel = cpuid1ECX()&kernelFeatures == kernelFeatures

// add128 adds n to the 128-bit counter hi:lo.
func add128(lo, hi, n uint64) (uint64, uint64) {
	lo, carry := bits.Add64(lo, n, 0)
	return lo, hi + carry
}

// ctrKernel XORs src into dst with the AES-256-CTR keystream of schedule
// xk whose first counter block is the big-endian 128-bit value hi:lo.
// len(dst) must equal len(src); dst may be src exactly, and must not
// overlap it otherwise.
func ctrKernel(xk *[60]uint32, dst, src []byte, lo, hi uint64) {
	for len(src) >= 128 {
		ctrBlocks8Asm(xk, (*[128]byte)(dst), (*[128]byte)(src), lo, hi)
		dst, src = dst[128:], src[128:]
		lo, hi = add128(lo, hi, 8)
	}
	// What is left is at most 7 = 4 + 2 + 1 whole blocks and a partial one.
	if len(src) >= 64 {
		ctrBlocks4Asm(xk, (*[64]byte)(dst), (*[64]byte)(src), lo, hi)
		dst, src = dst[64:], src[64:]
		lo, hi = add128(lo, hi, 4)
	}
	if len(src) >= 32 {
		ctrBlocks2Asm(xk, (*[32]byte)(dst), (*[32]byte)(src), lo, hi)
		dst, src = dst[32:], src[32:]
		lo, hi = add128(lo, hi, 2)
	}
	if len(src) >= 16 {
		ctrBlocks1Asm(xk, (*[16]byte)(dst), (*[16]byte)(src), lo, hi)
		dst, src = dst[16:], src[16:]
		lo, hi = add128(lo, hi, 1)
	}
	if len(src) > 0 {
		var block [16]byte
		copy(block[:], src)
		ctrBlocks1Asm(xk, &block, &block, lo, hi)
		copy(dst, block[:len(src)])
	}
}
