//go:build !amd64 || purego

package xcrypto

// No assembly kernel in this build: every LinkCipher takes the portable
// CTR loop and the stdlib HMAC, every batched key agreement and key pair
// crypto/ecdh, every batched signature check crypto/ed25519, and the
// entry points below are never reached.
const (
	haveCTRKernel    = false
	haveMACKernel    = false
	haveX25519Kernel = false
)

func x25519Kernel(*[256]uint8, [][32]byte, [][32]byte) {
	panic("xcrypto: no X25519 kernel in this build")
}

// verifier is the eight-lane Ed25519 check's state; see verify_amd64.go.
type verifier struct{}

func newVerifier([]byte) *verifier { panic("xcrypto: no verify kernel in this build") }

func (*verifier) verify([][]byte, [][]byte, []bool) {
	panic("xcrypto: no verify kernel in this build")
}

func expandKeyAsm(*[KeySize]byte, *[60]uint32) { panic("xcrypto: no CTR kernel in this build") }

func ctrKernel(*[60]uint32, []byte, []byte, uint64, uint64) {
	panic("xcrypto: no CTR kernel in this build")
}

func sha256BlocksAsm(*[8]uint32, []byte) { panic("xcrypto: no MAC kernel in this build") }
