// Prepared per-link cipher state for the channel hot path.
//
// The one-shot Seal/Open functions — the stdlib cipher.NewCTR + hmac
// reference the tests compare a LinkCipher against — rebuild the AES-256
// key schedule and the HMAC-SHA256 inner/outer pads from the raw session
// keys on every envelope. Those derivations are pure functions of the
// (immutable) link keys, so a LinkCipher computes them once at link
// establishment and every subsequent SealAppend/OpenAppend reuses them,
// appending into caller-provided buffers instead of allocating fresh
// ones. With a warm destination buffer the steady-state seal and open
// paths allocate nothing.
package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"hash"
	"io"
)

// LinkCipher is the prepared cipher state of one secure link: the expanded
// AES-256 encryption key schedule and a reusable HMAC-SHA256 instance
// whose key pads were absorbed once at construction. Envelopes it
// produces and accepts are byte-identical to the one-shot Seal/Open under
// the same keys and nonce stream (pinned by the package equivalence
// tests).
//
// A LinkCipher is NOT safe for concurrent use: the HMAC state (and, on
// the portable path, the CTR scratch blocks) is reused across calls. Each
// link owns one instance and the peer runtime serializes all sends and
// receives on its event loop.
type LinkCipher struct {
	mac hash.Hash
	// portable is nil exactly when the kernel runs this link's CTR. The
	// pointers come first: the collector scans an object up to its last
	// pointer and paces itself on those bytes, and the schedule below is
	// 240 of them per link end it has no reason to walk.
	portable *portableCTR
	// enc is the encryption schedule the keystream kernel reads, held by
	// value: with the kernel a link retains nothing else of AES.
	enc [60]uint32
	// sum receives the computed tag during OpenAppend verification.
	sum [MACSize]byte
}

// portableCTR is the CTR state of a link without the kernel: the stdlib
// AES block plus the counter and keystream scratch blocks, which live
// here (not on the stack) so the interface call to block.Encrypt cannot
// force a per-envelope heap allocation.
type portableCTR struct {
	block cipher.Block
	ctr   [NonceSize]byte
	ks    [NonceSize]byte
}

// NewLinkCipher prepares per-link cipher state from the session keys:
// the AES key expansion and the HMAC pad absorption happen here, once.
func NewLinkCipher(keys SessionKeys) (*LinkCipher, error) {
	return newLinkCipher(keys, haveCTRKernel)
}

// newLinkCipher is NewLinkCipher with the CTR path named, so the tests
// can hold the portable loop against the kernel on a host that has both.
func newLinkCipher(keys SessionKeys, kernel bool) (*LinkCipher, error) {
	c := &LinkCipher{mac: hmac.New(sha256.New, keys.Mac[:])}
	if kernel {
		expandKeyAsm(&keys.Enc, &c.enc)
		return c, nil
	}
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: aes: %w", err)
	}
	c.portable = &portableCTR{block: block}
	return c, nil
}

// SealAppend encrypts and authenticates plaintext exactly like Seal but
// appends the envelope to dst and returns the extended slice. Pass a
// slice with spare capacity to seal without allocating; pass nil to get
// a fresh, exactly-sized envelope. rng nil means crypto/rand.
func (c *LinkCipher) SealAppend(dst []byte, rng io.Reader, plaintext []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	start := len(dst)
	dst = appendGrow(dst, SealedSize(len(plaintext)))
	body := dst[start : start+NonceSize+len(plaintext)]
	if _, err := io.ReadFull(rng, body[:NonceSize]); err != nil {
		return nil, fmt.Errorf("xcrypto: nonce: %w", err)
	}
	c.ctrXOR(body[:NonceSize], body[NonceSize:], plaintext)
	c.mac.Reset()
	c.mac.Write(body)
	c.mac.Sum(body) // appends the tag in place: dst has the capacity
	return dst, nil
}

// OpenAppend verifies sealed exactly like Open but appends the recovered
// plaintext to dst and returns the extended slice. dst is untouched when
// verification fails.
func (c *LinkCipher) OpenAppend(dst, sealed []byte) ([]byte, error) {
	if len(sealed) < NonceSize+MACSize {
		return nil, ErrShortCiphertext
	}
	body := sealed[:len(sealed)-MACSize]
	tag := sealed[len(sealed)-MACSize:]
	c.mac.Reset()
	c.mac.Write(body)
	if !hmac.Equal(c.mac.Sum(c.sum[:0]), tag) {
		return nil, ErrAuthFailed
	}
	start := len(dst)
	dst = appendGrow(dst, len(body)-NonceSize)
	c.ctrXOR(body[:NonceSize], dst[start:], body[NonceSize:])
	return dst, nil
}

// ctrXOR applies AES-CTR over src into dst (same length; the same bytes
// or disjoint) with the semantics of crypto/cipher.NewCTR: the full
// 16-byte IV is the initial counter, incremented big-endian per block
// with the carry running from the low 64 bits into the high (pinned
// byte-identical by TestCTRXORMatchesStdlib). Neither path allocates.
func (c *LinkCipher) ctrXOR(iv, dst, src []byte) {
	hi, lo := binary.BigEndian.Uint64(iv), binary.BigEndian.Uint64(iv[8:])
	if p := c.portable; p != nil {
		p.xor(dst, src, lo, hi)
		return
	}
	ctrKernel(&c.enc, dst[:len(src)], src, lo, hi)
}

// xor is the portable CTR loop: one Block.Encrypt per 16 bytes.
func (p *portableCTR) xor(dst, src []byte, lo, hi uint64) {
	for len(src) > 0 {
		binary.BigEndian.PutUint64(p.ctr[:], hi)
		binary.BigEndian.PutUint64(p.ctr[8:], lo)
		p.block.Encrypt(p.ks[:], p.ctr[:])
		n := subtle.XORBytes(dst, src, p.ks[:])
		src, dst = src[n:], dst[n:]
		if lo++; lo == 0 {
			hi++
		}
	}
}

// appendGrow extends dst by n bytes, reallocating to exactly len(dst)+n
// when the capacity is short, and returns the extended slice. The new
// bytes are stale when capacity was reused, so callers must overwrite
// every byte of the extension.
func appendGrow(dst []byte, n int) []byte {
	if total := len(dst) + n; total <= cap(dst) {
		return dst[:total]
	}
	grown := make([]byte, len(dst)+n)
	copy(grown, dst)
	return grown
}
