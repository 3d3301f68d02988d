// Package channel implements the paper's Blinded Peer channel
// (Appendix A, Figure 4): the secure pairwise channel between two enclaves
// that yields properties P2 (message integrity & authenticity) and P3
// (blind-box computation), and — together with the enclave's
// measurement-bound key derivation — the program-binding half of P1.
//
// A link end corresponds to one (sender, receiver) enclave pair after
// PeerCh_sgx.Init, which the runtime runs when the pair first has a frame
// to seal or open (Local.Establish) rather than for every pair up front —
// attestation, which says whose key it is, comes before any of them — or
// for many of a peer's missing pairs at once (Local.EstablishBatch, whose
// key agreements run eight to a ladder on a CPU with the batch kernel),
// or for both ends of many pairs at once (EstablishPairs, a deployment's
// link schedule, then Local.Adopt at each end); the caller's Ends are
// filled in place and the keys never leave this package and the enclave.
// A peer holds one Local, what all its links share, and per link an End:
// the cipher state prepared from the session keys of the Diffie-Hellman
// exchange — for a real link the pair's one LinkCipher, which both ends
// hold where it is Shareable and they share a key cache or a schedule —
// through which wire.Message encodings are sealed into envelopes and
// opened back. Link is an End with a Local of its own. Everything that
// crosses the trust boundary to the untrusted OS is a sealed envelope: the
// adversary can drop, hold, duplicate or corrupt envelopes but cannot read
// or forge them, which is exactly the reduction of Theorem A.2 (byzantine
// => replay/omit/delay).
//
// A link has one seal and one open, like PeerCh_sgx's Write and Read:
// Local.SealAppend and Local.OpenAppend (a Link's SealEncodedAppend and
// OpenRawAppend), both through the cipher state prepared once when the
// end opened. The Sealer handed to NewLocal or NewLink picks that state:
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
// the two NewLocal knows how to prepare link state for. It never sees
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

// Local is the side of all its links that one enclave holds once: the
// enclave, whose key agreement opens each link; its nonce pool, where real
// links draw envelope nonces, fetched when the first one opens; the
// *ModelSealer whose envelope counter its model links share (nil: real
// links); and the metric counters. A peer keeps one Local, by value, and,
// per link end, only an End.
type Local struct {
	encl   *enclave.Enclave
	nonces io.Reader
	model  *ModelSealer
	ctr    *Counters
}

// NewLocal returns the shared side of encl's links under sealer, which
// must be a RealSealer or a non-nil *ModelSealer. ctr may be nil.
func NewLocal(encl *enclave.Enclave, sealer Sealer, ctr *Counters) (Local, error) {
	lc, err := newLocal(sealer)
	if err != nil {
		return Local{}, err
	}
	lc.encl, lc.ctr = encl, ctr
	return lc, nil
}

// newLocal is NewLocal without an enclave: its real links draw nonces
// from crypto/rand one envelope at a time.
func newLocal(sealer Sealer) (Local, error) {
	switch s := sealer.(type) {
	case RealSealer:
		return Local{}, nil
	case *ModelSealer:
		if s != nil {
			return Local{model: s}, nil
		}
	}
	return Local{}, fmt.Errorf("channel: unsupported sealer %T", sealer)
}

// End is one link end's own state, prepared once when the link opens and
// all it keeps of the session keys: the pair's xcrypto.LinkCipher for a
// real link — through an enclave KeyCache or EstablishPairs the very
// object the pair's other end holds — or, for a model link, the keyed
// checksum's seed, derived from the pair's MAC key (the simulation
// analogue of the cipher). The zero End is a link not opened yet.
type End struct {
	cipher *xcrypto.LinkCipher
	seed   uint64
}

// Establish is PeerCh_sgx.Init toward remote: it asks the local enclave
// for the pair's agreement with remotePub and prepares e from it. It fails
// if the enclave has halted; an End whose Establish failed must not be
// used.
func (lc *Local) Establish(e *End, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte) error {
	var err error
	if lc.model != nil {
		var keys xcrypto.SessionKeys
		if keys, err = lc.encl.SessionKeys(remotePub); err == nil {
			e.seed = modelSeed(keys)
		}
	} else {
		lc.nonces = lc.encl.NonceReader()
		e.cipher, err = lc.encl.LinkCipher(remotePub)
	}
	if err != nil {
		return fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	return nil
}

// PairsWith reports whether lc and o may share a pair's agreement
// (EstablishPairs): they seal alike, both real or both model, over
// enclaves that derive alike.
func (lc *Local) PairsWith(o *Local) bool {
	return (lc.model == nil) == (o.model == nil) && lc.encl.DerivesLike(o.encl)
}

// Pair is one link EstablishPairs prepares at both ends: Local's end
// toward Remote, whose attested key is RemotePub, and Remote's end toward
// Local from the same agreement. Its two Locals PairsWith each other and
// have opened neither end.
type Pair struct {
	Local     *Local
	Remote    wire.NodeID
	RemotePub [xcrypto.PublicKeySize]byte
}

// PairEnds is what EstablishPairs prepares for one Pair: the End of its
// local end and of its remote end — the same End twice where the pair's
// cipher is Shareable or the link is a model link. Adopt opens nothing
// from the PairEnds of a pair that failed.
type PairEnds struct {
	local, remote End
	ok            bool
}

// EstablishPairs is PeerCh_sgx.Init at both ends of every pair(k),
// k < len(ends), into ends[k], and returns the first failure. Each pair
// is agreed once for both ends, eight pairs to a ladder whichever
// enclave's scalar each lane carries (enclave.PairSessionKeys), and
// prepared once: its cipher carved, with the call's other ciphers, from
// one array, or its model seed derived. EstablishPairs writes nothing but
// ends, so calls over disjoint ends run side by side; Adopt then opens
// the ends, each Local on one goroutine.
func EstablishPairs(ends []PairEnds, pair func(k int) Pair) error {
	var (
		first         error
		carved, twins []xcrypto.LinkCipher
		n             int
		lanes         [xcrypto.BatchLanes]Pair
		at            [xcrypto.BatchLanes]int
		encls         [xcrypto.BatchLanes]*enclave.Enclave
		pubs          [xcrypto.BatchLanes][xcrypto.PublicKeySize]byte
		keys          [xcrypto.BatchLanes]xcrypto.SessionKeys
		errs          [xcrypto.BatchLanes]error
	)
	fail := func(remote wire.NodeID, err error) {
		if first == nil {
			first = fmt.Errorf("channel: link to %d: %w", remote, err)
		}
	}
	derive := func() {
		enclave.PairSessionKeys(encls[:n], pubs[:n], keys[:n], errs[:n])
		for j, p := range lanes[:n] {
			k, pe := at[j], &ends[at[j]]
			if errs[j] != nil {
				fail(p.Remote, errs[j])
				continue
			}
			if p.Local.model != nil {
				pe.local.seed = modelSeed(keys[j])
				pe.remote, pe.ok = pe.local, true
				continue
			}
			if carved == nil {
				carved = make([]xcrypto.LinkCipher, len(ends))
			}
			if err := carved[k].Init(&keys[j]); err != nil {
				fail(p.Remote, err)
				continue
			}
			pe.local.cipher, pe.remote.cipher, pe.ok = &carved[k], &carved[k], true
			if !carved[k].Shareable() {
				// Each end writes scratch into its cipher: the remote end
				// gets one of its own.
				if twins == nil {
					twins = make([]xcrypto.LinkCipher, len(ends))
				}
				if err := twins[k].Init(&keys[j]); err != nil {
					fail(p.Remote, err)
					pe.ok = false
					continue
				}
				pe.remote.cipher = &twins[k]
			}
		}
		clear(keys[:n])
		n = 0
	}
	for k := range ends {
		p := pair(k)
		lanes[n], at[n], encls[n], pubs[n] = p, k, p.Local.encl, p.RemotePub
		if n++; n == len(lanes) {
			derive()
		}
	}
	if n > 0 {
		derive()
	}
	return first
}

// CarveNonces fetches the nonce pools of the real-sealer Locals among
// local(0..n-1) — nil skips an index — that have none yet, their
// enclaves' pools carved from one array (enclave.CarveNoncePools): a
// link schedule opening a whole mesh pays one object for them, not one
// per enclave at its first real link.
func CarveNonces(n int, local func(i int) *Local) {
	bare := func(i int) *Local {
		if lc := local(i); lc != nil && lc.model == nil && lc.nonces == nil && lc.encl != nil {
			return lc
		}
		return nil
	}
	enclave.CarveNoncePools(n, func(i int) *enclave.Enclave {
		if lc := bare(i); lc != nil {
			return lc.encl
		}
		return nil
	})
	for i := range n {
		if lc := bare(i); lc != nil {
			lc.nonces = lc.encl.NonceReader()
		}
	}
}

// Adopt opens e from pe, which EstablishPairs prepared, as the pair's
// local end or, when remote is set, as its remote end. It reports whether
// it opened e: a failed pair's ends stay as they were.
func (lc *Local) Adopt(e *End, pe *PairEnds, remote bool) bool {
	if !pe.ok {
		return false
	}
	if *e = pe.local; remote {
		*e = pe.remote
	}
	if e.cipher != nil && lc.nonces == nil {
		lc.nonces = lc.encl.NonceReader()
	}
	return true
}

// EstablishBatch is Establish toward every peer of quotes, an attested
// roster indexed by node id, for which end(i) is not nil: into that End,
// the key agreements done as one enclave batch, so a peer opening many
// channels at once derives them eight to a ladder where the CPU allows.
// It calls settle(i, err) once per such i, err what Establish would have
// returned for it, after end(i) was prepared; end must return the same
// End for i until then. The caller's link table is read in place through
// end, and the keys never leave the call.
func (lc *Local) EstablishBatch(quotes []enclave.Quote, end func(i int) *End, settle func(i int, err error)) {
	want := func(i int) bool { return end(i) != nil }
	done := func(i int, err error) {
		if err != nil {
			err = fmt.Errorf("channel: link to %d: %w", quotes[i].NodeID, err)
		}
		settle(i, err)
	}
	if lc.model != nil {
		lc.encl.SessionKeysBatch(quotes, want, func(i int, keys xcrypto.SessionKeys, err error) {
			if err == nil {
				end(i).seed = modelSeed(keys)
			}
			done(i, err)
		})
		return
	}
	lc.nonces = lc.encl.NonceReader()
	lc.encl.LinkCiphersBatch(quotes, want, func(i int, c *xcrypto.LinkCipher, err error) {
		if err == nil {
			end(i).cipher = c
		}
		done(i, err)
	})
}

// SealAppend seals an encoded message — or a wire batch container, which
// is opaque plaintext to the channel — on the link end e, appending the
// envelope to dst. Both ciphers grow dst to the exact envelope size, so
// sealing into a nil dst costs one exactly-sized allocation and sealing
// into a warm buffer costs none. The runtime seals every envelope into
// one reused per-peer scratch buffer — the Transport.Send contract makes
// the payload valid only during the call, and transports that keep
// envelopes (queues, adversarial holds) copy them.
func (lc *Local) SealAppend(e *End, dst, encoded []byte) ([]byte, error) {
	var out []byte
	var err error
	if e.cipher != nil {
		out, err = e.cipher.SealAppend(dst, lc.nonces, encoded)
	} else {
		out = lc.model.sealAppend(e.seed, dst, encoded)
	}
	if err == nil && lc.ctr != nil {
		lc.ctr.Seals.Inc()
		lc.ctr.SealedBytes.Add(uint64(len(out) - len(dst)))
	}
	return out, err
}

// OpenAppend verifies and decrypts an envelope on the link end e without
// interpreting the plaintext, appending it to dst. Any failure is ErrAuth
// and means the envelope must be treated as an omission (Theorem A.2,
// step 1). The runtime's receive path opens raw first, then dispatches on
// the plaintext's first byte: a batch container is unbatched entry by
// entry, a bare message is decoded directly — with the per-message decode
// and the Sender == remote binding applied by the caller either way.
func (lc *Local) OpenAppend(e *End, dst, sealed []byte) ([]byte, error) {
	var out []byte
	var err error
	if e.cipher != nil {
		if out, err = e.cipher.OpenAppend(dst, sealed); err != nil {
			err = ErrAuth
		}
	} else {
		out, err = modelOpenAppend(e.seed, dst, sealed)
	}
	if lc.ctr != nil {
		if err != nil {
			lc.ctr.OpenFailures.Inc()
		} else {
			lc.ctr.Opens.Inc()
			lc.ctr.OpenedBytes.Add(uint64(len(out) - len(dst)))
		}
	}
	return out, err
}

// Link is one secure channel between the local enclave and one remote
// peer on its own: an End with a Local of its own, and exactly one seal
// and one open.
type Link struct {
	End
	local Local
}

// NewLink establishes the link to remote with public key remotePub. It
// fails if the local enclave has halted, or if sealer is anything but a
// RealSealer or a *ModelSealer. The cipher state is prepared here, once,
// so every later seal and open skips the key schedule and HMAC pad (or
// checksum seed) derivation; the raw keys are not retained.
func NewLink(local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) (*Link, error) {
	lc, err := NewLocal(local, sealer, nil)
	if err != nil {
		return nil, fmt.Errorf("channel: link to %d: %w", remote, err)
	}
	l := &Link{local: lc}
	if err := l.local.Establish(&l.End, remote, remotePub); err != nil {
		return nil, err
	}
	return l, nil
}

// newLinkFromKeys is NewLink after key agreement; the package tests use
// it to build links under fixed keys.
func newLinkFromKeys(keys xcrypto.SessionKeys, sealer Sealer) (*Link, error) {
	lc, err := newLocal(sealer)
	if err != nil {
		return nil, err
	}
	l := &Link{local: lc}
	if lc.model != nil {
		l.seed = modelSeed(keys)
	} else if l.cipher, err = xcrypto.NewLinkCipher(keys); err != nil {
		return nil, err
	}
	return l, nil
}

// SealEncodedAppend seals an encoded message for the remote peer,
// appending the envelope to dst (Local.SealAppend).
func (l *Link) SealEncodedAppend(dst, encoded []byte) ([]byte, error) {
	return l.local.SealAppend(&l.End, dst, encoded)
}

// OpenRawAppend verifies and decrypts an envelope from the remote peer,
// appending the plaintext to dst (Local.OpenAppend).
func (l *Link) OpenRawAppend(dst, sealed []byte) ([]byte, error) {
	return l.local.OpenAppend(&l.End, dst, sealed)
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
