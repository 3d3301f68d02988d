package deploy

import (
	"reflect"

	"sgxp2p/internal/runtime"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// VerifyRoster is New's roster check, for the error-identity tests.
var VerifyRoster = verifyRoster

// LinkCipher is the cipher p's end of the link to id seals with (nil: not
// opened), read through the runtime's and the channel's unexported
// fields: what a link end holds is no API of either.
func LinkCipher(p *runtime.Peer, id wire.NodeID) *xcrypto.LinkCipher {
	ends := reflect.ValueOf(p).Elem().FieldByName("ends")
	if int(id) >= ends.Len() {
		return nil
	}
	return (*xcrypto.LinkCipher)(ends.Index(int(id)).FieldByName("cipher").UnsafePointer())
}
