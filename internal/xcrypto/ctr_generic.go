//go:build !amd64 || purego

package xcrypto

// No keystream kernel in this build: every LinkCipher takes the portable
// CTR loop, and the two entry points below are never reached.
const haveCTRKernel = false

func expandKeyAsm(*[KeySize]byte, *[60]uint32) { panic("xcrypto: no CTR kernel in this build") }

func ctrKernel(*[60]uint32, []byte, []byte, uint64, uint64) {
	panic("xcrypto: no CTR kernel in this build")
}
