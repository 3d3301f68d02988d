package runtime

import "sgxp2p/internal/wire"

// OutboxHeld reports what the peer's outbox and frame index hold between
// windows: the slots p.out has room for, the batch buffers in the pool,
// and the frames indexed for a frame-cumulative ACK.
func (p *Peer) OutboxHeld() (slots, bufs, frames int) {
	return cap(p.out), len(p.bufFree), len(p.frameIdx)
}

// LinkOpen reports whether the peer has opened its end of the link to id.
func (p *Peer) LinkOpen(id wire.NodeID) bool {
	return int(id) < len(p.links) && p.links[id] != nil
}
