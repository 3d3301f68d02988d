package runtime

import (
	"unsafe"

	"sgxp2p/internal/wire"
)

// OutboxHeld reports what the peer's outbox and frame index hold between
// windows: the slots p.out has room for, the bytes the outbox retains
// (window log, container scratch, runs and slots, by capacity), and the
// frames indexed for a frame-cumulative ACK.
func (p *Peer) OutboxHeld() (slots, bytes, frames int) {
	bytes = cap(p.wlog) + cap(p.batch) +
		cap(p.runs)*int(unsafe.Sizeof(outRun{})) + cap(p.out)*int(unsafe.Sizeof(outSlot{}))
	return cap(p.out), bytes, len(p.frameIdx)
}

// LinkOpen reports whether the peer has opened its end of the link to id.
func (p *Peer) LinkOpen(id wire.NodeID) bool {
	return int(id) < len(p.links) && p.links[id].state == linkOpen
}
