// Package channel implements the paper's Blinded Peer channel
// (Appendix A, Figure 4): the secure pairwise channel between two enclaves
// that yields properties P2 (message integrity & authenticity) and P3
// (blind-box computation), and — together with the enclave's
// measurement-bound key derivation — the program-binding half of P1.
//
// A Link corresponds to one (sender, receiver) enclave pair after the
// setup phase: it owns the directional session keys derived from the
// Diffie-Hellman exchange and turns wire.Message values into sealed
// envelopes and back. Everything that crosses the trust boundary to the
// untrusted OS is a sealed envelope: the adversary can drop, hold,
// duplicate or corrupt envelopes but cannot read or forge them, which is
// exactly the reduction of Theorem A.2 (byzantine => replay/omit/delay).
//
// Sealing is pluggable via the Sealer interface:
//
//   - RealSealer computes the actual AES-CTR + HMAC-SHA256 composition of
//     the paper and is used in unit tests and the live TCP deployment.
//   - ModelSealer produces envelopes with identical layout and size whose
//     integrity/key binding is checked with a keyed checksum instead of a
//     full MAC. Experiments at N = 2^10 scale use it so the figure sweeps
//     run quickly; the package tests prove both sealers accept and reject
//     exactly the same events, so results are unaffected.
package channel

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Counters are the channel-layer metric handles, shared by all of a peer's
// links so the registry sees per-node totals. A nil *Counters (no metrics
// registry) costs the hot path exactly one pointer check.
type Counters struct {
	Seals        *telemetry.Counter
	Opens        *telemetry.Counter
	OpenFailures *telemetry.Counter
	SealedBytes  *telemetry.Counter
	OpenedBytes  *telemetry.Counter
}

// NewCounters registers the channel counters in m; nil m yields nil (the
// disabled state).
func NewCounters(m *telemetry.Metrics) *Counters {
	if m == nil {
		return nil
	}
	return &Counters{
		Seals:        m.Counter("channel_seals_total"),
		Opens:        m.Counter("channel_opens_total"),
		OpenFailures: m.Counter("channel_open_failures_total"),
		SealedBytes:  m.Counter("channel_sealed_bytes_total"),
		OpenedBytes:  m.Counter("channel_opened_bytes_total"),
	}
}

// Errors returned when opening envelopes.
var (
	// ErrAuth indicates an envelope that failed authentication: tampered,
	// replayed from a different pair, or produced by a different program.
	ErrAuth = errors.New("channel: envelope authentication failed")
	// ErrSenderMismatch indicates a structurally valid message whose
	// Sender field does not match the link's remote peer. With honest
	// enclaves this cannot happen; it guards protocol invariants.
	ErrSenderMismatch = errors.New("channel: sender does not match link peer")
)

// Sealer converts plaintext to sealed envelopes under session keys.
// Implementations must be deterministic in size: SealedSize(n) bytes for
// an n-byte plaintext.
//
// The append-style variants are the hot path: they write into a
// caller-provided buffer so a warm caller seals and opens without
// allocating. For any sealer state, SealAppend must append exactly the
// bytes Seal would return, and OpenAppend must accept and reject exactly
// the envelopes Open would (pinned by the package equivalence tests).
type Sealer interface {
	// Seal produces the envelope.
	Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error)
	// Open verifies and recovers the plaintext, returning an error for
	// any envelope not produced under keys.
	Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error)
	// SealedSize returns the envelope size for a plaintext length.
	SealedSize(plaintextLen int) int
	// SealAppend appends the envelope for plaintext to dst and returns
	// the extended slice.
	SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error)
	// OpenAppend appends the recovered plaintext to dst and returns the
	// extended slice; dst is untouched when verification fails.
	OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error)
}

// RealSealer performs genuine AES-256-CTR encryption with an HMAC-SHA256
// tag (encrypt-then-MAC), the composition proven secure in Theorem A.1.
type RealSealer struct{}

// Seal implements Sealer.
func (RealSealer) Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error) {
	return xcrypto.Seal(keys, nil, plaintext)
}

// Open implements Sealer.
func (RealSealer) Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error) {
	out, err := xcrypto.Open(keys, sealed)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

// SealedSize implements Sealer.
func (RealSealer) SealedSize(plaintextLen int) int {
	return xcrypto.SealedSize(plaintextLen)
}

// SealAppend implements Sealer. Links established with a RealSealer do
// not call it — they hold a prepared xcrypto.LinkCipher and skip the
// per-envelope key-schedule rebuild this one-shot form pays.
func (RealSealer) SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error) {
	return xcrypto.SealAppend(keys, nil, dst, plaintext)
}

// OpenAppend implements Sealer.
func (RealSealer) OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error) {
	out, err := xcrypto.OpenAppend(keys, dst, sealed)
	if err != nil {
		return nil, ErrAuth
	}
	return out, nil
}

// ModelSealer is the simulation-mode sealer: identical envelope geometry
// (16-byte header, payload, 32-byte tag), with a keyed 64-bit checksum
// (keyedFold) in place of the HMAC, seeded from the session's MAC key so
// the envelope is bound to the pair (and therefore to the program
// measurement mixed into the keys).
// Confidentiality is modelled rather than computed: the payload bytes are
// physically present, but the only code that ever handles envelopes below
// the trust boundary is the adversary package, whose API operates on
// opaque envelopes. A corrupted, cross-pair or wrong-program envelope is
// rejected exactly as the RealSealer would reject it.
type ModelSealer struct {
	counter uint64
}

// NewModelSealer returns a fresh ModelSealer.
func NewModelSealer() *ModelSealer { return &ModelSealer{} }

const (
	modelHeader = 16
	modelTag    = 32
)

// Seal implements Sealer.
func (s *ModelSealer) Seal(keys xcrypto.SessionKeys, plaintext []byte) ([]byte, error) {
	dst := make([]byte, 0, modelHeader+len(plaintext)+modelTag)
	return s.SealAppend(keys, dst, plaintext)
}

// SealAppend implements Sealer. The counter is shared with Seal and with
// every link prepared over this sealer, so mixed usage stays
// byte-identical to an all-Seal sequence.
func (s *ModelSealer) SealAppend(keys xcrypto.SessionKeys, dst, plaintext []byte) ([]byte, error) {
	return s.sealAppend(modelSeed(keys), dst, plaintext), nil
}

// Open implements Sealer.
func (s *ModelSealer) Open(keys xcrypto.SessionKeys, sealed []byte) ([]byte, error) {
	// Return a copy: envelopes may be aliased by replaying adversaries.
	return s.OpenAppend(keys, nil, sealed)
}

// OpenAppend implements Sealer.
func (s *ModelSealer) OpenAppend(keys xcrypto.SessionKeys, dst, sealed []byte) ([]byte, error) {
	return modelOpenAppend(modelSeed(keys), dst, sealed)
}

// SealedSize implements Sealer.
func (s *ModelSealer) SealedSize(plaintextLen int) int {
	return modelHeader + plaintextLen + modelTag
}

// sealAppend is the one model seal routine: the generic Sealer path
// derives seed from the keys per call, a prepared link passes the seed
// it derived once.
func (s *ModelSealer) sealAppend(seed uint64, dst, plaintext []byte) []byte {
	s.counter++
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, s.counter)
	dst = binary.LittleEndian.AppendUint64(dst, 0) // header padding
	dst = append(dst, plaintext...)
	sum := keyedFold(seed, dst[start:])
	// Fill the whole 32-byte tag region so flips anywhere in it are
	// detected, as they would be against a real HMAC.
	for i := 0; i < modelTag; i += 8 {
		dst = binary.LittleEndian.AppendUint64(dst, sum)
	}
	return dst
}

// modelOpenAppend is the one model open routine (see sealAppend).
func modelOpenAppend(seed uint64, dst, sealed []byte) ([]byte, error) {
	if len(sealed) < modelHeader+modelTag {
		return nil, ErrAuth
	}
	body := sealed[:len(sealed)-modelTag]
	sum := keyedFold(seed, body)
	tag := sealed[len(body):]
	for i := 0; i < modelTag; i += 8 {
		if binary.LittleEndian.Uint64(tag[i:]) != sum {
			return nil, ErrAuth
		}
	}
	return append(dst, body[modelHeader:]...), nil
}

// Parameters of keyedFold: one odd multiplier per lane (so every lane
// step is a bijection of the lane state), an odd finalizer multiplier,
// and the basis the MAC key is folded from.
const (
	foldMul0  = 0x9e3779b97f4a7c15
	foldMul1  = 0xc2b2ae3d27d4eb4f
	foldMul2  = 0x165667b19e3779f9
	foldMul3  = 0x27d4eb2f165667c5
	foldMulF  = 0xff51afd7ed558ccd
	foldBasis = 0xcbf29ce484222325
)

// foldStep is one lane step: xor the word in, multiply by the lane's odd
// constant, rotate. All three are bijections of the lane state. The
// rotate moves each word's high bits back under the next multiply:
// without it, bit 63 of a word would only ever reach bit 63 of the lane,
// and flipping the top bit of two words of one lane would cancel.
func foldStep(lane, word, mul uint64) uint64 {
	return bits.RotateLeft64((lane^word)*mul, 29)
}

// keyedFold is the keyed checksum standing in for the HMAC. It consumes
// data as little-endian 64-bit words, each 32-byte block dealt across
// four independent lanes so four multiply chains overlap instead of one
// multiply per byte running serially; of the last partial block a word
// pair goes to lanes 0 and 1, a single word to lane 2 and the
// zero-padded tail to lane 3. The data length is folded into lane 0
// like a word, then the lanes are combined and finalized.
//
// Guarantee: every lane step, the length fold, the combine (in any one
// lane with the others fixed) and the finalizer are bijections, so two
// inputs of equal length that differ in exactly one word — any change
// confined to 8 aligned bytes, which covers every single-bit and
// single-byte corruption — always produce different sums, as do inputs
// that differ only in how many zero bytes pad the last word (the length
// fold). Any other difference is missed with probability about 2^-64
// over the seed. It is a checksum, not a MAC: the simulation's adversary
// corrupts, drops and replays envelopes, it does not solve for the seed.
func keyedFold(seed uint64, data []byte) uint64 {
	l0, l1 := seed, ^seed
	l2, l3 := bits.RotateLeft64(seed, 32), ^bits.RotateLeft64(seed, 32)
	n := uint64(len(data))
	for len(data) >= 32 {
		l0 = foldStep(l0, binary.LittleEndian.Uint64(data), foldMul0)
		l1 = foldStep(l1, binary.LittleEndian.Uint64(data[8:]), foldMul1)
		l2 = foldStep(l2, binary.LittleEndian.Uint64(data[16:]), foldMul2)
		l3 = foldStep(l3, binary.LittleEndian.Uint64(data[24:]), foldMul3)
		data = data[32:]
	}
	if len(data) >= 16 {
		l0 = foldStep(l0, binary.LittleEndian.Uint64(data), foldMul0)
		l1 = foldStep(l1, binary.LittleEndian.Uint64(data[8:]), foldMul1)
		data = data[16:]
	}
	if len(data) >= 8 {
		l2 = foldStep(l2, binary.LittleEndian.Uint64(data), foldMul2)
		data = data[8:]
	}
	if len(data) > 0 {
		var tail [8]byte
		copy(tail[:], data)
		l3 = foldStep(l3, binary.LittleEndian.Uint64(tail[:]), foldMul3)
	}
	l0 = foldStep(l0, n, foldMul0)
	h := l0 ^ bits.RotateLeft64(l1, 16) ^ bits.RotateLeft64(l2, 32) ^ bits.RotateLeft64(l3, 48)
	h ^= h >> 32
	h *= foldMulF
	h ^= h >> 29
	return h
}

// modelSeed derives the per-session checksum seed: the MAC key's four
// words folded from a fixed basis. Distinct MAC keys — another pair, or
// the same pair running a different program — give distinct seeds except
// with probability 2^-64.
func modelSeed(keys xcrypto.SessionKeys) uint64 {
	return keyedFold(foldBasis, keys.Mac[:])
}

// modelCipher is the prepared per-link state of a ModelSealer link — the
// simulation analogue of xcrypto.LinkCipher: the seed is derived from the
// link's MAC key once at link establishment instead of on every
// envelope. The envelope counter stays on the shared *ModelSealer, so the
// envelope stream is byte-identical to the generic Sealer path (pinned by
// the package equivalence tests).
type modelCipher struct {
	s    *ModelSealer
	seed uint64
}

// Link is one direction-agnostic secure channel between the local enclave
// and one remote peer, established during the setup phase.
type Link struct {
	// The dispatch pointers every seal/open touches lead the struct so
	// they share the Link's first cache line: a large topology holds one
	// Link per directed pair, and the per-envelope hot path reads only
	// these three fields.
	//
	// cipher is the prepared per-link cipher state built at link
	// establishment for RealSealer links: the AES key schedule and the
	// HMAC pads are derived once here instead of on every envelope.
	// Stateful (scratch blocks, HMAC state), hence per-link and never
	// shared through the enclave key cache.
	cipher *xcrypto.LinkCipher
	// model is the prepared per-link state for *ModelSealer links (the
	// precomputed MAC-key seed of the keyed checksum), nil otherwise.
	model *modelCipher
	// ctr, when non-nil, tallies seal/open traffic. Every seal and open
	// funnels through sealAppend/openAppend, so counting there covers all
	// entry points.
	ctr    *Counters
	local  wire.NodeID
	remote wire.NodeID
	keys   xcrypto.SessionKeys
	sealer Sealer
}

// SetCounters attaches metric counters to the link (nil detaches them).
func (l *Link) SetCounters(c *Counters) { l.ctr = c }

// NewLink derives the session keys with the remote enclave's public key
// and returns the established link. It fails if the local enclave has
// halted. For the real AES+HMAC sealer the per-link cipher state is
// prepared here, once, so every later seal and open skips the key
// schedule and HMAC pad derivation.
func NewLink(local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) (*Link, error) {
	if sealer == nil {
		return nil, errors.New("channel: nil sealer")
	}
	keys, err := local.SessionKeys(remotePub)
	if err != nil {
		return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	l := &Link{local: local.ID(), remote: remote, keys: keys, sealer: sealer}
	if _, ok := sealer.(RealSealer); ok {
		if l.cipher, err = xcrypto.NewLinkCipher(keys); err != nil {
			return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
		}
	}
	if ms, ok := sealer.(*ModelSealer); ok {
		l.model = &modelCipher{s: ms, seed: modelSeed(keys)}
	}
	return l, nil
}

// sealAppend appends the envelope for plaintext to dst via the prepared
// cipher when the link has one, the sealer otherwise.
func (l *Link) sealAppend(dst, plaintext []byte) ([]byte, error) {
	var out []byte
	var err error
	switch {
	case l.cipher != nil:
		out, err = l.cipher.SealAppend(dst, nil, plaintext)
	case l.model != nil:
		out = l.model.s.sealAppend(l.model.seed, dst, plaintext)
	default:
		out, err = l.sealer.SealAppend(l.keys, dst, plaintext)
	}
	if err == nil && l.ctr != nil {
		l.ctr.Seals.Inc()
		l.ctr.SealedBytes.Add(uint64(len(out) - len(dst)))
	}
	return out, err
}

// openAppend appends the verified plaintext of sealed to dst.
func (l *Link) openAppend(dst, sealed []byte) ([]byte, error) {
	var out []byte
	var err error
	switch {
	case l.cipher != nil:
		out, err = l.cipher.OpenAppend(dst, sealed)
		if err != nil {
			err = ErrAuth
		}
	case l.model != nil:
		out, err = modelOpenAppend(l.model.seed, dst, sealed)
	default:
		out, err = l.sealer.OpenAppend(l.keys, dst, sealed)
	}
	if l.ctr != nil {
		if err != nil {
			l.ctr.OpenFailures.Inc()
		} else {
			l.ctr.Opens.Inc()
			l.ctr.OpenedBytes.Add(uint64(len(out) - len(dst)))
		}
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Remote returns the peer on the far side of the link.
func (l *Link) Remote() wire.NodeID { return l.remote }

// Seal encodes and seals a protocol message for the remote peer.
func (l *Link) Seal(msg *wire.Message) ([]byte, error) {
	plaintext, err := msg.Encode()
	if err != nil {
		return nil, fmt.Errorf("channel: encode: %w", err)
	}
	return l.SealEncodedAppend(nil, plaintext)
}

// SealEncoded seals an already-encoded message for the remote peer. It is
// the multicast hot path: a message sent to N-1 destinations is encoded
// once by the runtime and sealed per link, instead of being re-encoded
// inside every Seal. The envelope is byte-identical to Seal(msg) for the
// same sealer state (proven by the package's equivalence tests).
func (l *Link) SealEncoded(encoded []byte) ([]byte, error) {
	return l.SealEncodedAppend(nil, encoded)
}

// SealEncodedAppend is SealEncoded appending the envelope to dst. It
// pre-grows dst to the exact envelope size, so sealing into a nil dst
// costs one exactly-sized allocation and sealing into a warm buffer
// costs none; the envelope bytes are identical to SealEncoded for the
// same sealer state. The runtime seals every envelope into one reused
// per-peer scratch buffer — the Transport.Send contract makes the
// payload valid only during the call, and transports that keep
// envelopes (queues, adversarial holds) copy them.
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	if need := l.sealer.SealedSize(len(encoded)); cap(dst)-len(dst) < need {
		grown := make([]byte, len(dst), len(dst)+need)
		copy(grown, dst)
		dst = grown
	}
	return l.sealAppend(dst, encoded)
}

// SealBatchAppend seals a wire batch container (wire.AppendBatchEntry)
// for the remote peer, appending the envelope to dst. The container is
// opaque plaintext to the channel, so this is SealEncodedAppend under a
// name marking the coalesced-outbox entry point: one seal pass covers
// every message in the batch.
func (l *Link) SealBatchAppend(dst, batch []byte) ([]byte, error) {
	return l.SealEncodedAppend(dst, batch)
}

// OpenRawAppend verifies and decrypts an envelope without interpreting
// the plaintext, appending it to dst. The runtime's receive path opens
// raw first, then dispatches on the plaintext's first byte: a batch
// container is unbatched entry by entry, a bare message is decoded
// directly — with the per-message decode and sender checks applied by
// the caller either way (wire.Decode plus a Sender == Remote() check,
// exactly what OpenEncodedAppend enforces).
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	return l.openAppend(dst, sealed)
}

// Open verifies, decrypts and decodes an envelope received from the remote
// peer. Any failure means the envelope must be treated as an omission
// (Theorem A.2, step 1).
func (l *Link) Open(sealed []byte) (*wire.Message, error) {
	msg, _, err := l.OpenEncoded(sealed)
	return msg, err
}

// OpenEncoded is Open returning the decoded message together with its
// encoded plaintext. The receive path uses the plaintext to compute the
// ACK digest H(val) directly, instead of re-encoding the message it just
// decoded.
func (l *Link) OpenEncoded(sealed []byte) (*wire.Message, []byte, error) {
	return l.OpenEncodedAppend(nil, sealed)
}

// OpenEncodedAppend is OpenEncoded decrypting into dst: the returned
// plaintext is dst extended by the envelope's payload bytes. The receive
// hot path passes a per-peer scratch buffer (sliced to length 0), so a
// warm receive verifies, decrypts and digests without allocating the
// plaintext. The returned plaintext aliases dst's backing array and is
// only valid until the buffer's next use; the decoded message owns no
// part of it.
func (l *Link) OpenEncodedAppend(dst, sealed []byte) (*wire.Message, []byte, error) {
	plaintext, err := l.openAppend(dst, sealed)
	if err != nil {
		return nil, nil, err
	}
	msg, err := wire.Decode(plaintext[len(dst):])
	if err != nil {
		return nil, nil, fmt.Errorf("channel: decode: %w", err)
	}
	if msg.Sender != l.remote {
		return nil, nil, ErrSenderMismatch
	}
	return msg, plaintext, nil
}

// SealedMessageSize returns the on-wire envelope size for a message,
// letting callers budget traffic without sealing.
func (l *Link) SealedMessageSize(msg *wire.Message) int {
	return l.sealer.SealedSize(msg.EncodedSize())
}

// FrameTag returns the link-unique identifier of a sealed envelope: the
// first eight header bytes, which both sealers fill with per-envelope
// material (the ModelSealer's strictly increasing counter, the
// RealSealer's random AES-CTR nonce prefix). Sender and receiver read
// the same bytes off the same envelope, so the tag lets an
// acknowledgment name a whole sealed frame without hashing it — content
// binding is inherited from the envelope's own authentication (P2): a
// receiver can only have opened the exact bytes the tag came from.
// Counter tags never repeat on a link; random nonce prefixes collide
// with probability 2^-64 per frame pair, which downstream users accept
// (a collision merely merges two ACK credits within one round).
func FrameTag(sealed []byte) uint64 {
	if len(sealed) < 8 {
		return 0
	}
	return binary.LittleEndian.Uint64(sealed)
}
