// Package overlay is a helper package for the sealflow golden test: a sink
// behind a function declared in another package than its caller, and a
// leak of its own.
package overlay

import (
	"fixtures/sealflow/internal/runtime"
	"fixtures/sealflow/internal/wire"
)

// SendRaw hands a frame to the transport as it is.
func SendRaw(t runtime.Transport, dst uint32, frame []byte) error {
	return t.Send(dst, frame)
}

// Relay sends m's plaintext encoding itself: a leak reported where it
// sits when this package is linted, and not at all when it is only a
// dependency of the linted packages.
func Relay(t runtime.Transport, m *wire.Message) error {
	encoded, err := m.Encode()
	if err != nil {
		return err
	}
	return t.Send(2, encoded) // want "payload plaintext from wire.Message.Encode reaches network sink runtime.Transport.Send"
}
