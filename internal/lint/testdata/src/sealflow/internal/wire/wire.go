// Package wire is a minimal fake of sgxp2p/internal/wire for the sealflow
// golden test: its encoders are the analyzer's plaintext sources.
package wire

// Message models a protocol message.
type Message struct {
	Body []byte
}

// Encode returns the plaintext encoding.
func (m *Message) Encode() ([]byte, error) {
	return append([]byte(nil), m.Body...), nil
}

// AppendEncode appends the plaintext encoding to buf.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	return append(buf, m.Body...), nil
}

// AppendEncodeEntry appends the plaintext encoding to buf as a batch
// entry.
func (m *Message) AppendEncodeEntry(buf []byte) ([]byte, error) {
	return append(buf, m.Body...), nil
}

// AppendBatchEntry appends one encoded message to a batch buffer.
func AppendBatchEntry(buf, encoded []byte) []byte {
	return append(buf, encoded...)
}
