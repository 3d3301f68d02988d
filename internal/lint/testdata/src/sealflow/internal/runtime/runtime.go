// Package runtime is a minimal fake of sgxp2p/internal/runtime for the
// sealflow golden test: Transport.Send is a peer's network sink.
package runtime

// Transport carries a peer's frames to other peers.
type Transport interface {
	Send(dst uint32, frame []byte) error
}
