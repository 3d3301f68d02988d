//go:build !purego

package xcrypto

// The SHA-256 block routine (sha_amd64.s): the compression function on the
// CPU's SHA extensions, called on a bare chaining value so an HMAC tag is
// a handful of block calls on stack state and nothing else.

// sha256BlocksAsm runs the whole 64-byte blocks of p through the SHA-256
// compression function, updating state; a partial block at the end of p
// is ignored.
//
//go:noescape
func sha256BlocksAsm(state *[8]uint32, p []byte)

func cpuid7EBX() uint32

// macKernelFeatures are the CPUID leaf 1 ECX bits the block routine needs
// besides SHA itself: 19 (SSE4.1, for PBLENDW) and 9 (SSSE3, for PSHUFB
// and PALIGNR). SHA is leaf 7 EBX bit 29. No instruction is VEX-encoded,
// so the operating system's AVX state support does not come into it.
const macKernelFeatures = 1<<19 | 1<<9

// haveMACKernel is the one choice between the two MAC paths, made here
// from what the CPU reports and independently of haveCTRKernel.
var haveMACKernel = cpuid1ECX()&macKernelFeatures == macKernelFeatures && cpuid7EBX()&(1<<29) != 0
