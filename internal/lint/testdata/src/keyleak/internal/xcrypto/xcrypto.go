// Package xcrypto is a minimal fake of sgxp2p/internal/xcrypto for the
// keyleak golden test: SessionKeys/LinkCipher/SigningKey/macState are the
// key-typed sources, Seal/Sign are the sanctioned consumers.
package xcrypto

// SessionKeys is pairwise key material.
type SessionKeys struct {
	Enc [32]byte
	Mac [32]byte
}

// LinkCipher is prepared per-link cipher state.
type LinkCipher struct {
	keys SessionKeys
}

// macState is an HMAC key with its pads absorbed: key-equivalent.
type macState struct {
	inner, outer [8]uint32
}

// AbsorbPads prepares a raw MAC key; what it returns is still the key.
func AbsorbPads(key [32]byte) macState {
	return macState{inner: [8]uint32{uint32(key[0])}}
}

// SigningKey is a private signing key.
type SigningKey struct {
	priv [32]byte
}

// Seal encrypts plaintext under keys; its output is ciphertext, not key
// material.
func Seal(keys SessionKeys, plaintext []byte) ([]byte, error) {
	return append([]byte(nil), plaintext...), nil
}

// Sign produces a public signature.
func (sk *SigningKey) Sign(msg []byte) []byte {
	return append([]byte(nil), msg...)
}
