package xcrypto

import (
	"crypto/sha256"
	"encoding/binary"
)

// macState is an HMAC-SHA256 key in the form the construction uses it:
// the SHA-256 chaining values left after absorbing the one block of
// key⊕ipad and the one block of key⊕opad. A tag under the key starts from
// copies of these two values, so they are key-equivalent material.
type macState struct {
	inner, outer [8]uint32
}

// sha256IV is SHA-256's initial chaining value.
var sha256IV = [8]uint32{
	0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
	0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
}

// setKey absorbs the two pads. A key of KeySize bytes is shorter than a
// block, so HMAC uses it as it is, zero-extended.
func (m *macState) setKey(key *[KeySize]byte) {
	var ipad, opad [sha256.BlockSize]byte
	for i := range ipad {
		ipad[i], opad[i] = 0x36, 0x5c
	}
	for i, k := range key {
		ipad[i] ^= k
		opad[i] ^= k
	}
	m.inner, m.outer = sha256IV, sha256IV
	sha256BlocksAsm(&m.inner, ipad[:])
	sha256BlocksAsm(&m.outer, opad[:])
}

// tag writes HMAC-SHA256(key, body) to out: the whole blocks of body
// straight from where they lie, its tail with SHA-256's padding from a
// stack buffer, then the one outer block over the inner digest. out may
// be the bytes that follow body.
func (m *macState) tag(out *[MACSize]byte, body []byte) {
	st := m.inner
	// The length counts the pad block the chaining value already absorbed.
	absorb(&st, body, sha256.BlockSize+len(body))

	// Outer hash: the opad block (absorbed) and the 32-byte inner digest.
	var last [sha256.BlockSize]byte
	putState(last[:], &st)
	last[MACSize] = 0x80
	binary.BigEndian.PutUint64(last[sha256.BlockSize-8:], (sha256.BlockSize+MACSize)*8)
	st = m.outer
	sha256BlocksAsm(&st, last[:])
	putState(out[:], &st)
}

// absorb runs data through the compression function from st as the end of
// a message of total bytes: the whole blocks straight from where they lie,
// the tail with SHA-256's padding from a stack buffer. The tail, the 0x80
// marker and the 64-bit length make one block when the tail leaves room
// for the nine bytes after it, two otherwise.
func absorb(st *[8]uint32, data []byte, total int) {
	whole := len(data) &^ (sha256.BlockSize - 1)
	sha256BlocksAsm(st, data[:whole])
	var buf [2 * sha256.BlockSize]byte
	n := copy(buf[:], data[whole:])
	buf[n] = 0x80
	end := sha256.BlockSize
	if n+9 > sha256.BlockSize {
		end = 2 * sha256.BlockSize
	}
	binary.BigEndian.PutUint64(buf[end-8:], uint64(total)*8)
	sha256BlocksAsm(st, buf[:end])
}

// Sum256 returns the SHA-256 digest of data, as crypto/sha256.Sum256
// does, on the block routine the link MAC runs on: no hash.Hash state is
// built, the padding is laid out in a stack block. Without the kernel it
// is crypto/sha256.Sum256. It hashes what it is given in the clear, so it
// is for public inputs and digests of plaintext the caller already holds,
// like the message digests ACKs carry.
func Sum256(data []byte) [sha256.Size]byte {
	if !haveMACKernel {
		return sha256.Sum256(data)
	}
	st := sha256IV
	absorb(&st, data, len(data))
	var out [sha256.Size]byte
	putState(out[:], &st)
	return out
}

// putState serializes a chaining value as the big-endian digest.
func putState(dst []byte, st *[8]uint32) {
	_ = dst[MACSize-1]
	for i, w := range st {
		binary.BigEndian.PutUint32(dst[4*i:], w)
	}
}
