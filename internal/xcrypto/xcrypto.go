// Package xcrypto provides the cryptographic substrate used by the enclave
// model and the blinded Peer channel: X25519 Diffie-Hellman key agreement,
// an encrypt-then-MAC symmetric channel cipher (AES-CTR + HMAC-SHA256,
// matching the SKE+MAC composition of the paper's Appendix A, Figure 4),
// Ed25519 signatures for the attestation quotes and the digital-signature
// broadcast baseline, and SHA-256 program measurements.
//
// Everything here is built from the Go standard library, plus three amd64
// kernels: two adapted from the standard library's own assembly that a
// LinkCipher uses, the AES-256-CTR keystream kernel (ctr_amd64.s) and the
// SHA-256 block routine under its HMAC (sha_amd64.s), which LICENSE-go
// covers; and eight-lane AVX-512 IFMA field arithmetic (x25519_amd64.s)
// under the X25519 ladder of KeyPair.DeriveSessionKeysBatch and
// GenerateKeyPairs, held byte for byte to crypto/ecdh, and under the
// Ed25519 check of VerifyKey.VerifyBatch (verify_amd64.go), held verdict
// for verdict to crypto/ed25519.
package xcrypto

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/ed25519"
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
)

// Sizes of the fixed-width cryptographic values used on the wire.
const (
	// KeySize is the size in bytes of symmetric keys (AES-256 and HMAC keys).
	KeySize = 32
	// MACSize is the size in bytes of the HMAC-SHA256 authentication tag.
	MACSize = 32
	// NonceSize is the size in bytes of the per-message nonce (AES-CTR IV).
	NonceSize = 16
	// MeasurementSize is the size in bytes of a program measurement H(pi).
	MeasurementSize = 32
	// SignatureSize is the size in bytes of an Ed25519 signature.
	SignatureSize = ed25519.SignatureSize
	// PublicKeySize is the size in bytes of an X25519 public key.
	PublicKeySize = 32
)

// Errors returned by the channel cipher and signature helpers.
var (
	// ErrAuthFailed indicates that a ciphertext failed MAC verification:
	// either the bytes were tampered with in transit or they were produced
	// under a different key.
	ErrAuthFailed = errors.New("xcrypto: message authentication failed")
	// ErrShortCiphertext indicates a ciphertext too short to contain the
	// mandatory nonce and MAC tag.
	ErrShortCiphertext = errors.New("xcrypto: ciphertext too short")
	// ErrBadSignature indicates an invalid Ed25519 signature.
	ErrBadSignature = errors.New("xcrypto: bad signature")
)

// Measurement is the SHA-256 hash of an enclave program, the H(pi) value
// that the blinded channel binds into every message (property P1).
type Measurement [MeasurementSize]byte

// Measure computes the measurement of a program identified by its code.
// In the real SGX deployment this is MRENCLAVE; here the "code" is any
// canonical byte representation of the protocol program and version.
func Measure(program []byte) Measurement {
	return sha256.Sum256(program)
}

// String implements fmt.Stringer with a short hex prefix.
func (m Measurement) String() string {
	return fmt.Sprintf("%x", m[:4])
}

// SessionKeys holds the pair of directional symmetric keys derived from a
// Diffie-Hellman exchange: key1 encrypts, key2 authenticates, exactly as in
// Figure 4 of the paper where Init outputs K = (key1, key2).
type SessionKeys struct {
	Enc [KeySize]byte
	Mac [KeySize]byte
}

// KeyPair is an X25519 key pair used in the channel setup phase. The
// public half is kept as bytes from generation on: every session-key
// derivation and every key-cache lookup reads it. So is the private
// scalar, which the batch kernel reads. The private key as crypto/ecdh
// holds it is built only where crypto/ecdh computes (ecdhKey): building
// it is itself a full ladder, for a public key the kernel already made.
type KeyPair struct {
	priv   atomic.Pointer[ecdh.PrivateKey]
	pub    [PublicKeySize]byte
	scalar [32]byte
}

// GenerateKeyPair creates a fresh X25519 key pair from the given entropy
// source. Pass nil to use crypto/rand. The key is derived from exactly 32
// bytes of the source (ecdh.GenerateKey would nondeterministically consume
// an extra byte, which would break seeded reproducible deployments). It is
// GenerateKeyPairs for one reader.
func GenerateKeyPair(rng io.Reader) (*KeyPair, error) {
	kps, err := GenerateKeyPairs([]io.Reader{rng})
	if err != nil {
		return nil, err
	}
	return kps[0], nil
}

// ecdhKey returns the private key as crypto/ecdh holds it, building it at
// the first call. Concurrent first calls may each build it; they build
// the same key.
func (kp *KeyPair) ecdhKey() (*ecdh.PrivateKey, error) {
	if priv := kp.priv.Load(); priv != nil {
		return priv, nil
	}
	priv, err := ecdh.X25519().NewPrivateKey(kp.scalar[:])
	if err != nil {
		return nil, err
	}
	kp.priv.Store(priv)
	return priv, nil
}

// Public returns the 32-byte X25519 public key.
func (kp *KeyPair) Public() [PublicKeySize]byte {
	return kp.pub
}

// DeriveSessionKeys completes the Diffie-Hellman exchange against the remote
// public key and derives the directional session keys. Both sides derive the
// same keys because the KDF input orders the two public keys canonically.
func (kp *KeyPair) DeriveSessionKeys(remote [PublicKeySize]byte) (SessionKeys, error) {
	var keys SessionKeys
	remotePub, err := ecdh.X25519().NewPublicKey(remote[:])
	if err != nil {
		return keys, fmt.Errorf("xcrypto: parse remote public key: %w", err)
	}
	priv, err := kp.ecdhKey()
	if err != nil {
		return keys, fmt.Errorf("xcrypto: ECDH: %w", err)
	}
	shared, err := priv.ECDH(remotePub)
	if err != nil {
		return keys, fmt.Errorf("xcrypto: ECDH: %w", err)
	}
	return kp.sessionKeys(shared, &remote), nil
}

// sessionKeys derives the directional keys from the shared secret.
func (kp *KeyPair) sessionKeys(shared []byte, remote *[PublicKeySize]byte) SessionKeys {
	lo, hi := kp.pub[:], remote[:]
	if lessBytes(hi, lo) {
		lo, hi = hi, lo
	}
	return SessionKeys{Enc: kdf(shared, lo, hi, "enc"), Mac: kdf(shared, lo, hi, "mac")}
}

// PairID canonically identifies an unordered pair of X25519 public keys:
// the two keys concatenated in ascending byte order. Because both the real
// ECDH derivation and the model key exchange are symmetric in the pair,
// PairID is the natural key under which one end of a pair leaves the
// session keys for the other (see enclave.KeyCache): the (i,j) and (j,i)
// directions map to the same entry.
type PairID [2 * PublicKeySize]byte

// MakePairID builds the canonical pair identifier for two public keys.
func MakePairID(a, b [PublicKeySize]byte) PairID {
	var out PairID
	if lessBytes(b[:], a[:]) {
		a, b = b, a
	}
	copy(out[:PublicKeySize], a[:])
	copy(out[PublicKeySize:], b[:])
	return out
}

// kdf derives one labeled 32-byte key from the shared secret and the two
// canonically ordered public keys: SHA-256 over prefix, label, secret and
// keys, 113 bytes with a three-letter label, assembled on the stack.
func kdf(shared, lo, hi []byte, label string) [KeySize]byte {
	const prefix = "sgxp2p-kdf-v1/"
	var in [128]byte
	if len(prefix)+len(label)+len(shared)+len(lo)+len(hi) > len(in) {
		panic("xcrypto: kdf input outgrew its buffer")
	}
	n := copy(in[:], prefix)
	n += copy(in[n:], label)
	n += copy(in[n:], shared)
	n += copy(in[n:], lo)
	n += copy(in[n:], hi)
	return sha256.Sum256(in[:n])
}

func lessBytes(a, b []byte) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return false
}

// Seal encrypts and authenticates plaintext under the session keys using
// AES-256-CTR with a fresh nonce followed by HMAC-SHA256 over nonce and
// ciphertext (encrypt-then-MAC). The output layout is
//
//	nonce [16] || ciphertext [len(plaintext)] || mac [32]
//
// so SealedSize(len(plaintext)) bytes in total. Seal and Open are the
// stdlib (cipher.NewCTR + hmac) reference: links seal and open through a
// prepared LinkCipher, which the tests pin byte-identical to this pair.
func Seal(keys SessionKeys, rng io.Reader, plaintext []byte) ([]byte, error) {
	if rng == nil {
		rng = rand.Reader
	}
	out := make([]byte, NonceSize+len(plaintext)+MACSize)
	nonce := out[:NonceSize]
	if _, err := io.ReadFull(rng, nonce); err != nil {
		return nil, fmt.Errorf("xcrypto: nonce: %w", err)
	}
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: aes: %w", err)
	}
	cipher.NewCTR(block, nonce).XORKeyStream(out[NonceSize:NonceSize+len(plaintext)], plaintext)
	mac := hmac.New(sha256.New, keys.Mac[:])
	mac.Write(out[:NonceSize+len(plaintext)])
	mac.Sum(out[:NonceSize+len(plaintext)])
	return out, nil
}

// Open verifies and decrypts a sealed message produced by Seal, returning
// the plaintext. It returns ErrAuthFailed if the MAC does not verify.
func Open(keys SessionKeys, sealed []byte) ([]byte, error) {
	if len(sealed) < NonceSize+MACSize {
		return nil, ErrShortCiphertext
	}
	body := sealed[:len(sealed)-MACSize]
	tag := sealed[len(sealed)-MACSize:]
	mac := hmac.New(sha256.New, keys.Mac[:])
	mac.Write(body)
	if !hmac.Equal(mac.Sum(nil), tag) {
		return nil, ErrAuthFailed
	}
	nonce := body[:NonceSize]
	ct := body[NonceSize:]
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		return nil, fmt.Errorf("xcrypto: aes: %w", err)
	}
	plaintext := make([]byte, len(ct))
	cipher.NewCTR(block, nonce).XORKeyStream(plaintext, ct)
	return plaintext, nil
}

// SealedSize returns the on-wire size of a sealed message carrying a
// plaintext of the given length.
func SealedSize(plaintextLen int) int {
	return NonceSize + plaintextLen + MACSize
}

// SigningKey is an Ed25519 signing key used by the digital-signature
// baseline protocols (RBsig) and by the simulated attestation service.
type SigningKey struct {
	priv ed25519.PrivateKey
}

// VerifyKey is the public half of a SigningKey.
type VerifyKey struct {
	pub ed25519.PublicKey
}

// GenerateSigningKey creates a fresh Ed25519 key pair from the given entropy
// source. Pass nil to use crypto/rand.
func GenerateSigningKey(rng io.Reader) (*SigningKey, error) {
	if rng == nil {
		rng = rand.Reader
	}
	_, priv, err := ed25519.GenerateKey(rng)
	if err != nil {
		return nil, fmt.Errorf("xcrypto: generate ed25519 key: %w", err)
	}
	return &SigningKey{priv: priv}, nil
}

// VerifyKey returns the public verification key.
func (sk *SigningKey) VerifyKey() VerifyKey {
	return VerifyKey{pub: sk.priv.Public().(ed25519.PublicKey)}
}

// Sign signs the message.
func (sk *SigningKey) Sign(msg []byte) []byte {
	return ed25519.Sign(sk.priv, msg)
}

// Verify checks a signature over msg, returning ErrBadSignature on failure.
func (vk VerifyKey) Verify(msg, sig []byte) error {
	if len(vk.pub) != ed25519.PublicKeySize || !ed25519.Verify(vk.pub, msg, sig) {
		return ErrBadSignature
	}
	return nil
}

// Bytes returns the raw public key bytes.
func (vk VerifyKey) Bytes() []byte {
	out := make([]byte, len(vk.pub))
	copy(out, vk.pub)
	return out
}

// VerifyKeyFromBytes reconstructs a VerifyKey from raw bytes.
func VerifyKeyFromBytes(b []byte) (VerifyKey, error) {
	if len(b) != ed25519.PublicKeySize {
		return VerifyKey{}, fmt.Errorf("xcrypto: verify key must be %d bytes, got %d", ed25519.PublicKeySize, len(b))
	}
	pub := make(ed25519.PublicKey, len(b))
	copy(pub, b)
	return VerifyKey{pub: pub}, nil
}

// RandomUint64 draws a uniform 64-bit value from the given entropy source.
func RandomUint64(rng io.Reader) (uint64, error) {
	if rng == nil {
		rng = rand.Reader
	}
	var buf [8]byte
	if _, err := io.ReadFull(rng, buf[:]); err != nil {
		return 0, fmt.Errorf("xcrypto: random: %w", err)
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// RandomBelow draws a uniform value in [0, n) from the given entropy source
// using rejection sampling so the result is exactly uniform. n must be > 0.
func RandomBelow(rng io.Reader, n uint64) (uint64, error) {
	if n == 0 {
		return 0, errors.New("xcrypto: RandomBelow with n == 0")
	}
	if n == 1 {
		return 0, nil
	}
	// Largest multiple of n that fits in a uint64; values at or above it
	// are rejected to avoid modulo bias.
	limit := ^uint64(0) - ^uint64(0)%n
	for {
		v, err := RandomUint64(rng)
		if err != nil {
			return 0, err
		}
		if v < limit {
			return v % n, nil
		}
	}
}
