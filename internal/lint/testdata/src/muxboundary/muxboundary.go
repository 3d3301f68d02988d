// Package muxboundary is golden-test input: node-scoped runtime access and
// direct cipher use the muxboundary analyzer must flag in instance-scoped
// code, next to the legal Host-capability idioms it must not.
package muxboundary

import (
	"fixtures/muxboundary/internal/channel"
	"fixtures/muxboundary/internal/runtime"
	"fixtures/muxboundary/internal/xcrypto"
)

// engine is the legal shape: an instance keeps only its Host capability.
type engine struct {
	host runtime.Host
}

// legalSurface exercises the allowed runtime symbols end to end.
func legalSurface(h runtime.Host, it *runtime.Instance) runtime.Protocol {
	_ = h.Round()
	_ = it.StartRound()
	return nil
}

// grabsPeer reaches for the node-scoped runtime objects.
func grabsPeer() {
	var p *runtime.Peer // want "runtime.Peer is node-scoped"
	_ = p
	_ = runtime.NewPeer() // want "runtime.NewPeer is node-scoped"
}

// buildsOwnMux schedules around the node's scheduler.
func buildsOwnMux(p *runtime.Peer) { // want "runtime.Peer is node-scoped"
	_ = runtime.NewMux(p) // want "runtime.NewMux is node-scoped"
}

// keepsMux holds the node-scoped scheduler in instance state.
type keepsMux struct {
	m *runtime.Mux // want "runtime.Mux is node-scoped"
}

// sendsRaw bypasses the runtime's outbox entirely.
func sendsRaw(tr runtime.Transport, frame []byte) { // want "runtime.Transport is node-scoped"
	_ = tr.Send(0, frame)
}

// sealsItself corrupts per-link AEAD sequence state.
func sealsItself(frame []byte) []byte {
	c := channel.New()        // want "channel.New bypasses the runtime's per-link cipher state"
	return c.Seal(nil, frame) // want "channel.Seal bypasses the runtime's per-link cipher state"
}

// rawSeal uses the sealing primitives directly.
func rawSeal(key, frame []byte) []byte {
	return xcrypto.Seal(key, frame) // want "xcrypto.Seal bypasses the runtime's per-link cipher state"
}

// suppressed documents a sanctioned exception with a reason.
func suppressed() {
	//lint:allow muxboundary node bootstrap helper exercised only by the runtime's own tests
	_ = runtime.NewPeer()
}
