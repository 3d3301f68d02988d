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
// AES-256 encryption key schedule and the HMAC-SHA256 key with its two
// pads absorbed, both computed once at construction. Envelopes it
// produces and accepts are byte-identical to the one-shot Seal/Open under
// the same keys and nonce stream (pinned by the package equivalence
// tests).
//
// With both kernels a LinkCipher is one object without a pointer in use:
// the schedule, the two chaining values and the tag scratch, 336 bytes by
// value. A LinkCipher is NOT safe for concurrent use: sum (and, on the
// portable paths, the CTR scratch blocks and the hash.Hash) is reused
// across calls. Each link owns one instance and the peer runtime
// serializes all sends and receives on its event loop.
type LinkCipher struct {
	// mac is nil exactly when the kernel computes this link's tags, and
	// portable exactly when the kernel runs its CTR. The pointers come
	// first: the collector scans an object up to its last pointer and
	// paces itself on those bytes, and what follows is 336 of them per
	// link end it has no reason to walk.
	mac      *portableMAC
	portable *portableCTR
	// enc is the encryption schedule the keystream kernel reads, held by
	// value: with the kernel a link retains nothing else of AES.
	enc [60]uint32
	// mid is the MAC key as the block routine uses it, by value for the
	// same reason: a tag copies 32 bytes of it twice, and six objects of
	// hmac state per link end are six cache misses on a link that was idle.
	mid macState
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

// portableMAC is the MAC state of a link without the kernel: one reusable
// stdlib HMAC-SHA256 whose key pads were absorbed at construction. It is
// a struct around the interface so that a LinkCipher on the kernel pays
// one nil word for it, not two, and stays in the 352-byte size class.
type portableMAC struct {
	hash.Hash
}

// NewLinkCipher prepares per-link cipher state from the session keys:
// the AES key expansion and the HMAC pad absorption happen here, once.
func NewLinkCipher(keys SessionKeys) (*LinkCipher, error) {
	return newLinkCipher(&keys, haveCTRKernel, haveMACKernel)
}

// newLinkCipher is NewLinkCipher with the CTR and MAC paths named, so the
// tests can hold each portable path against its kernel on a host that has
// both. With both kernels it is one allocation: keys is read in place
// and only the stdlib branches copy what they retain.
func newLinkCipher(keys *SessionKeys, ctrKernel, macKernel bool) (*LinkCipher, error) {
	c := new(LinkCipher)
	if macKernel {
		c.mid.setKey(&keys.Mac)
	} else {
		key := keys.Mac
		c.mac = &portableMAC{hmac.New(sha256.New, key[:])}
	}
	if ctrKernel {
		expandKeyAsm(&keys.Enc, &c.enc)
		return c, nil
	}
	key := keys.Enc
	block, err := aes.NewCipher(key[:])
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
	c.tag((*[MACSize]byte)(dst[start+len(body):]), body)
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
	c.tag(&c.sum, body)
	if !hmac.Equal(c.sum[:], tag) {
		return nil, ErrAuthFailed
	}
	start := len(dst)
	dst = appendGrow(dst, len(body)-NonceSize)
	c.ctrXOR(body[:NonceSize], dst[start:], body[NonceSize:])
	return dst, nil
}

// tag writes HMAC-SHA256(mac key, body) to out, which may be the bytes
// that follow body. Neither path allocates.
func (c *LinkCipher) tag(out *[MACSize]byte, body []byte) {
	if h := c.mac; h != nil {
		h.Reset()
		h.Write(body)
		h.Sum(out[:0])
		return
	}
	c.mid.tag(out, body)
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
