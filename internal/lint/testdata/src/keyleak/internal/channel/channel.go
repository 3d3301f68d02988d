// Package channel is a minimal fake of sgxp2p/internal/channel for the
// keyleak golden test: a key holder whose handle is opaque to callers and
// whose byte-returning methods are not.
package channel

import "fixtures/keyleak/internal/xcrypto"

// End is one side of a blinded channel; it holds the pair's keys.
type End struct {
	keys xcrypto.SessionKeys
}

// NewEnd keeps keys inside the handle it returns.
func NewEnd(keys xcrypto.SessionKeys) *End {
	return &End{keys: keys}
}

// Material hands raw key bytes out of the holder.
func (e *End) Material() []byte {
	return e.keys.Enc[:]
}
