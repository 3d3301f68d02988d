package simnet

// PayloadHeld reports the slabs the network keeps for delivery payloads
// and their bytes: the spares and the carvers' current slabs.
func (n *Network) PayloadHeld() (slabs, bytes int) {
	held := append([]*slab{n.slab}, n.spare...)
	for i := range n.pools {
		held = append(held, n.pools[i].slab)
	}
	for _, s := range held {
		if s != nil {
			slabs++
			bytes += cap(s.buf)
		}
	}
	return slabs, bytes
}

// SlabSize is the size of a payload slab.
const SlabSize = slabSize
