// Package channel implements the paper's Blinded Peer channel
// (Appendix A, Figure 4): the secure pairwise channel between two enclaves
// that yields properties P2 (message integrity & authenticity) and P3
// (blind-box computation), and — together with the enclave's
// measurement-bound key derivation — the program-binding half of P1.
//
// A Link corresponds to one (sender, receiver) enclave pair after
// PeerCh_sgx.Init, which the runtime runs when the pair first has a frame
// to seal or open (Establish) rather than for every pair up front —
// attestation, which says whose key it is, comes before any of them — or
// for all of a peer's missing pairs at once before a full-mesh instance
// (EstablishBatch, whose key agreements run eight to a ladder on a CPU
// with the batch kernel; the caller hands over link slots and ids and the
// keys never leave this package and the enclave). It owns the directional
// session keys derived from the Diffie-Hellman exchange and turns
// wire.Message values into sealed envelopes and back. Everything that
// crosses the trust boundary to the untrusted OS is a sealed envelope: the
// adversary can drop, hold, duplicate or corrupt envelopes but cannot read
// or forge them, which is exactly the reduction of Theorem A.2 (byzantine
// => replay/omit/delay).
//
// A Link has one seal and one open, like PeerCh_sgx's Write and Read:
// SealEncodedAppend and OpenRawAppend, both through the per-link cipher
// state NewLink prepares once. The Sealer handed to NewLink picks that
// state:
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
	"io"
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

// ErrAuth is returned when opening an envelope that failed
// authentication: tampered, replayed from a different pair, or produced by
// a different program.
var ErrAuth = errors.New("channel: envelope authentication failed")

// Sealer names the envelope scheme of a link: RealSealer or *ModelSealer,
// the two NewLink knows how to prepare per-link state for. It never sees
// key material. Implementations must be deterministic in size:
// SealedSize(n) bytes for an n-byte plaintext.
type Sealer interface {
	// SealedSize returns the envelope size for a plaintext length.
	SealedSize(plaintextLen int) int
}

// RealSealer performs genuine AES-256-CTR encryption with an HMAC-SHA256
// tag (encrypt-then-MAC), the composition proven secure in Theorem A.1.
// Its links seal and open through a prepared xcrypto.LinkCipher.
type RealSealer struct{}

// SealedSize implements Sealer.
func (RealSealer) SealedSize(plaintextLen int) int {
	return xcrypto.SealedSize(plaintextLen)
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

// SealedSize implements Sealer.
func (s *ModelSealer) SealedSize(plaintextLen int) int {
	return modelHeader + plaintextLen + modelTag
}

// sealAppend is the model seal routine. The envelope counter is shared by
// every link prepared over this sealer (one peer's links); seed is the
// calling link's.
func (s *ModelSealer) sealAppend(seed uint64, dst, plaintext []byte) []byte {
	s.counter++
	start := len(dst)
	if need := s.SealedSize(len(plaintext)); cap(dst)-start < need {
		grown := make([]byte, start, start+need)
		copy(grown, dst)
		dst = grown
	}
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

// modelOpenAppend is the model open routine: dst is untouched when
// verification fails.
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

// Link is one direction-agnostic secure channel between the local enclave
// and one remote peer, established during the setup phase.
type Link struct {
	// The dispatch pointers every seal/open touches lead the struct so
	// they share the Link's first cache line: a large topology holds one
	// Link per directed pair, and the per-envelope hot path reads only
	// these fields. Exactly one of cipher and model is set, and the
	// prepared state is all the link keeps of its session keys.
	//
	// cipher is the prepared per-link cipher state built at link
	// establishment for RealSealer links: the AES key schedule and the
	// two HMAC chaining values are derived once here instead of on every
	// envelope. Stateful (the tag scratch; on the portable paths also the
	// CTR scratch blocks and the stdlib hash), hence per-link and never
	// shared through the enclave key cache.
	cipher *xcrypto.LinkCipher
	// nonces is where cipher draws envelope nonces: the local enclave's
	// batched reader, shared by all its links (nil means crypto/rand
	// directly, one read per envelope).
	nonces io.Reader
	// model and seed are the prepared per-link state for *ModelSealer
	// links — the simulation analogue of the LinkCipher: the sealer whose
	// envelope counter all of one peer's links share, and the keyed
	// checksum's seed, derived from this link's MAC key once here instead
	// of on every envelope. model is nil otherwise.
	model *ModelSealer
	seed  uint64
	// ctr, when non-nil, tallies seal/open traffic.
	ctr    *Counters
	remote wire.NodeID
}

// SetCounters attaches metric counters to the link (nil detaches them).
func (l *Link) SetCounters(c *Counters) { l.ctr = c }

// NewLink derives the session keys with the remote enclave's public key
// and returns the established link. It fails if the local enclave has
// halted, or if sealer is anything but a RealSealer or a *ModelSealer.
// The per-link cipher state is prepared here, once, so every later seal
// and open skips the key schedule and HMAC pad (or checksum seed)
// derivation; the raw keys are not retained.
func NewLink(local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) (*Link, error) {
	l := new(Link)
	if err := Establish(l, local, remote, remotePub, sealer); err != nil {
		return nil, err
	}
	return l, nil
}

// Establish is NewLink into a zero Link the caller holds, so an owner that
// keeps state of its own per link end (the runtime's outbox position)
// embeds the Link and pays one allocation for both. A Link whose
// Establish failed must not be used.
func Establish(l *Link, local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) error {
	keys, err := local.SessionKeys(remotePub)
	if err != nil {
		return fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	if err := l.prepare(remote, keys, sealer); err != nil {
		return err
	}
	if l.cipher != nil {
		l.nonces = local.NonceReader()
	}
	return nil
}

// EstablishBatch is Establish into each of links, links[i] toward remotes[i]
// with public key remotePubs[i], the key agreements done as one
// enclave.SessionKeysBatch: a peer opening many channels at once derives
// them eight to a ladder where the CPU allows. It returns nil when every
// link was established, and otherwise one error per link, nil for those
// that were: errs[i] is what Establish would have returned for links[i],
// and a Link with an error must not be used. The keys never leave the
// call.
func EstablishBatch(links []*Link, local *enclave.Enclave, remotes []wire.NodeID, remotePubs [][xcrypto.PublicKeySize]byte, sealer Sealer) (errs []error) {
	local.SessionKeysBatch(remotePubs, func(i int, keys xcrypto.SessionKeys, err error) {
		l := links[i]
		if err != nil {
			err = fmt.Errorf("channel: link to %d: %w", remotes[i], err)
		} else if err = l.prepare(remotes[i], keys, sealer); err == nil && l.cipher != nil {
			l.nonces = local.NonceReader()
		}
		if err != nil {
			if errs == nil {
				errs = make([]error, len(links))
			}
			errs[i] = err
		}
	})
	return errs
}

// newLinkFromKeys is NewLink after key agreement; the package tests use
// it to build links under fixed keys.
func newLinkFromKeys(remote wire.NodeID, keys xcrypto.SessionKeys, sealer Sealer) (*Link, error) {
	l := new(Link)
	if err := l.prepare(remote, keys, sealer); err != nil {
		return nil, err
	}
	return l, nil
}

// prepare builds the link's cipher state from the pair's session keys.
func (l *Link) prepare(remote wire.NodeID, keys xcrypto.SessionKeys, sealer Sealer) error {
	l.remote = remote
	switch s := sealer.(type) {
	case RealSealer:
		c, err := xcrypto.NewLinkCipher(keys)
		if err != nil {
			return fmt.Errorf("channel: link to %d: %w", remote, err)
		}
		l.cipher = c
	case *ModelSealer:
		l.model, l.seed = s, modelSeed(keys)
	default:
		return fmt.Errorf("channel: link to %d: unsupported sealer %T", remote, sealer)
	}
	return nil
}

// Remote returns the peer on the far side of the link.
func (l *Link) Remote() wire.NodeID { return l.remote }

// SealEncodedAppend seals an encoded message — or a wire batch container,
// which is opaque plaintext to the channel — for the remote peer,
// appending the envelope to dst. Both ciphers grow dst to the exact
// envelope size, so sealing into a nil dst costs one exactly-sized
// allocation and sealing into a warm buffer costs none. The runtime seals
// every envelope into one reused per-peer scratch buffer — the
// Transport.Send contract makes the payload valid only during the call,
// and transports that keep envelopes (queues, adversarial holds) copy
// them.
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	var out []byte
	var err error
	if l.cipher != nil {
		out, err = l.cipher.SealAppend(dst, l.nonces, encoded)
	} else {
		out = l.model.sealAppend(l.seed, dst, encoded)
	}
	if err == nil && l.ctr != nil {
		l.ctr.Seals.Inc()
		l.ctr.SealedBytes.Add(uint64(len(out) - len(dst)))
	}
	return out, err
}

// OpenRawAppend verifies and decrypts an envelope without interpreting
// the plaintext, appending it to dst. Any failure is ErrAuth and means
// the envelope must be treated as an omission (Theorem A.2, step 1). The
// runtime's receive path opens raw first, then dispatches on the
// plaintext's first byte: a batch container is unbatched entry by entry,
// a bare message is decoded directly — with the per-message decode and
// the Sender == Remote() binding applied by the caller either way.
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	var out []byte
	var err error
	if l.cipher != nil {
		if out, err = l.cipher.OpenAppend(dst, sealed); err != nil {
			err = ErrAuth
		}
	} else {
		out, err = modelOpenAppend(l.seed, dst, sealed)
	}
	if l.ctr != nil {
		if err != nil {
			l.ctr.OpenFailures.Inc()
		} else {
			l.ctr.Opens.Inc()
			l.ctr.OpenedBytes.Add(uint64(len(out) - len(dst)))
		}
	}
	return out, err
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
