// Golden test for the keyleak analyzer: key material must not reach
// telemetry, log/error formatting, or exported returns outside the TCB.
// Sanctioned uses (sealing, signing) sit next to the violations.
package keyleak

import (
	"fmt"

	"fixtures/keyleak/internal/channel"
	"fixtures/keyleak/internal/overlay"
	"fixtures/keyleak/internal/telemetry"
	"fixtures/keyleak/internal/xcrypto"
)

// describeKeys leaks key material into an error string.
func describeKeys(keys xcrypto.SessionKeys) error {
	return fmt.Errorf("bad keys %v", keys.Enc) // want "key material from xcrypto.SessionKeys reaches log/error formatting"
}

// leakViaHelper shows the interprocedural path: emit's summary carries the
// telemetry sink back to this call site.
func leakViaHelper(t *telemetry.Tracer, keys xcrypto.SessionKeys) {
	emit(t, keys) // want "key material from xcrypto.SessionKeys reaches telemetry"
}

// emit reports at its own Record call too: with type-based sources, taint
// is born at every read of a key-typed value.
func emit(t *telemetry.Tracer, keys xcrypto.SessionKeys) {
	t.Record(uint64(keys.Enc[0]), "handshake") // want "key material from xcrypto.SessionKeys reaches telemetry"
}

// SessionOf returns key material from an exported function outside the TCB.
func SessionOf(keys xcrypto.SessionKeys) xcrypto.SessionKeys { // want "key material .* flows into exported return"
	return keys
}

// describeMidstate leaks a prepared MAC key: the raw bytes it came from
// are no key type, the midstate they become is.
func describeMidstate(raw [32]byte) error {
	return fmt.Errorf("mac state %v", xcrypto.AbsorbPads(raw)) // want "key material from xcrypto.macState reaches log/error formatting"
}

// sealedUse is sanctioned: Seal consumes the keys and returns ciphertext.
// No finding.
func sealedUse(t *telemetry.Tracer, keys xcrypto.SessionKeys, plaintext []byte) error {
	env, err := xcrypto.Seal(keys, plaintext)
	if err != nil {
		return err
	}
	t.Record(uint64(len(env)), "sealed")
	return nil
}

// signedUse is sanctioned: signatures are public. No finding.
func signedUse(sk *xcrypto.SigningKey, msg []byte) []byte {
	return sk.Sign(msg)
}

// leakViaOtherPackage formats key bytes through a helper declared in
// another package: its summary carries the fmt sink back here.
func leakViaOtherPackage(keys xcrypto.SessionKeys) error {
	return overlay.Fmt(keys.Enc) // want "key material from xcrypto.SessionKeys reaches log/error formatting fmt.Errorf \\(via overlay.Fmt\\)"
}

// handleIsOpaque: a key holder's handle keeps its keys inside, so a call
// that returns only a handle is opaque. No finding.
func handleIsOpaque(keys xcrypto.SessionKeys) error {
	end := channel.NewEnd(keys)
	return fmt.Errorf("link %p", end)
}

// bytesLeaveTheHolder: a key holder's []byte result can carry the keys
// out, so the call is followed.
func bytesLeaveTheHolder(end *channel.End) error {
	return fmt.Errorf("link %x", end.Material()) // want "key material from xcrypto.SessionKeys reaches log/error formatting"
}
