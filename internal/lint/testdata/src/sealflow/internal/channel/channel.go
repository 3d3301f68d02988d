// Package channel is a minimal fake of sgxp2p/internal/channel for the
// sealflow golden test: the real Link's one seal/open pair. The Seal*
// method is the analyzer's sanitizer, the Open* method a plaintext source.
package channel

// Link models a sealed point-to-point channel.
type Link struct{}

// SealEncodedAppend seals one encoded message, or a whole batch buffer,
// into an envelope.
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	return append(dst, encoded...), nil
}

// OpenRawAppend opens an envelope back into plaintext.
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	return append(dst, sealed...), nil
}
