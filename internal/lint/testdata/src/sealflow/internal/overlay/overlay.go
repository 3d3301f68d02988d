// Package overlay is a helper package for the sealflow golden test: a sink
// behind a function declared in another package than its caller.
package overlay

import "fixtures/sealflow/internal/runtime"

// SendRaw hands a frame to the transport as it is.
func SendRaw(t runtime.Transport, dst uint32, frame []byte) error {
	return t.Send(dst, frame)
}
