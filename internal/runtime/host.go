package runtime

import (
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Host is the runtime surface a protocol instance programs against: the
// identity, timing and messaging services of the node it runs on. Both a
// dedicated *Peer (the pre-multiplexing single-instance mode) and a Mux's
// *Instance handle satisfy it, so the same protocol code (internal/core)
// runs one-per-peer or a thousand-per-peer without change.
//
// The interface deliberately excludes the Transport, the links and their
// cipher state: those belong to the shared Peer/Mux layer, where sealing
// and frame coalescing amortize across every hosted instance. Protocol
// code reaching below Host defeats that sharing — the muxboundary lint
// check enforces the split.
type Host interface {
	// ID returns the node id of the hosting peer.
	ID() wire.NodeID
	// N returns the network size, T the byzantine bound, Delta the
	// one-way delivery bound (a lockstep round lasts 2*Delta).
	N() int
	T() int
	Delta() time.Duration
	// Instance returns the protocol instance id messages of this
	// instance are stamped with (an epoch counter on a dedicated Peer, a
	// per-instance id under a Mux).
	Instance() uint32
	// Round returns the current lockstep round (0 before the run starts).
	Round() uint32
	// Now returns the current time (virtual in simulation).
	Now() time.Duration
	// Halted reports whether the hosting peer churned itself out (P4).
	Halted() bool
	// SeqOf returns the expected sequence number of a peer (P6).
	SeqOf(id wire.NodeID) uint64
	// Enclave exposes the node's enclave to the (trusted) protocol layer.
	Enclave() *enclave.Enclave
	// Metrics exposes the deployment's metric registry (nil without one).
	Metrics() *telemetry.Metrics
	// Trace records a protocol-layer event, attributed to this instance.
	Trace(kind telemetry.Kind, peer wire.NodeID, arg uint64)
	// Multicast, Send and SendAck are the sealed messaging primitives of
	// the shared runtime (see the *Peer methods for their contracts).
	// Messages are borrowed: encoded before the call returns and never
	// retained, so callers may reuse one scratch message across calls.
	Multicast(dsts []wire.NodeID, msg *wire.Message, ackThreshold int) error
	Send(dst wire.NodeID, msg *wire.Message) error
	SendAck(dst wire.NodeID, received *wire.Message) error
	// Flush forces the round-scoped outbox onto the wire immediately.
	Flush()
}

var _ Host = (*Peer)(nil)
