//go:build !amd64 || purego

package xcrypto

// No assembly kernel in this build: every LinkCipher takes the portable
// CTR loop and the stdlib HMAC, and the entry points below are never
// reached.
const (
	haveCTRKernel = false
	haveMACKernel = false
)

func expandKeyAsm(*[KeySize]byte, *[60]uint32) { panic("xcrypto: no CTR kernel in this build") }

func ctrKernel(*[60]uint32, []byte, []byte, uint64, uint64) {
	panic("xcrypto: no CTR kernel in this build")
}

func sha256BlocksAsm(*[8]uint32, []byte) { panic("xcrypto: no MAC kernel in this build") }
