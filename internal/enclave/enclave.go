// Package enclave models the trusted hardware side of a peer: an SGX-like
// enclave providing the paper's four features —
//
//	F1 enclaved execution   (state below the trust boundary is inaccessible
//	                         to the untrusted OS layer),
//	F2 unbiased randomness  (ReadRand backed by a CSPRNG, standing in for
//	                         RDRAND / sgx_read_rand),
//	F3 remote attestation   (quotes over the program measurement signed by
//	                         a simulated attestation service), and
//	F4 trusted elapsed time (a monotonic clock relative to a reference
//	                         point, standing in for sgx_get_trusted_time).
//
// The paper itself evaluated in SGX *simulation mode* with a simulated
// Intel attestation service; this package is the Go analogue. The security
// boundary is enforced structurally: protocol code runs against *Enclave
// and the adversarial OS layer only ever handles sealed envelopes (see
// internal/channel and internal/adversary).
package enclave

import (
	"bufio"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Errors returned by the attestation service and enclave operations.
var (
	// ErrBadQuote indicates an attestation quote whose signature does not
	// verify — a forged or corrupted quote.
	ErrBadQuote = errors.New("enclave: attestation quote signature invalid")
	// ErrWrongMeasurement indicates a verified quote whose program
	// measurement differs from the expected protocol program (attack A1:
	// the remote peer runs a modified program).
	ErrWrongMeasurement = errors.New("enclave: remote enclave runs a different program")
	// ErrHalted indicates an operation on an enclave that has executed
	// Halt (property P4) — its state st is bottom and stays bottom.
	ErrHalted = errors.New("enclave: halted")
)

// Clock is a monotonic time source. In simulation it is the virtual clock;
// in live mode it is the wall clock. The enclave trusts it (F4); the
// untrusted OS cannot influence the value protocol code observes.
type Clock interface {
	// Now returns the elapsed time since an arbitrary fixed origin.
	Now() time.Duration
}

// WallClock is a Clock backed by the real monotonic wall clock, for live
// (TCP) deployments.
type WallClock struct {
	origin time.Time
}

// NewWallClock returns a WallClock anchored at the current instant.
func NewWallClock() *WallClock {
	return &WallClock{origin: time.Now()}
}

// Now implements Clock.
func (c *WallClock) Now() time.Duration { return time.Since(c.origin) }

// Enclave is one peer's trusted execution environment. All fields are
// unexported: the OS layer cannot reach enclave state (F1). An Enclave is
// not safe for concurrent use; in the simulator a node's events run one
// at a time, and the TCP runtime serializes access.
type Enclave struct {
	id          wire.NodeID
	measurement xcrypto.Measurement
	rng         io.Reader
	clock       Clock
	launchedAt  time.Duration
	reference   time.Duration
	dh          *xcrypto.KeyPair
	modelKEX    bool
	keyCache    *KeyCache
	halted      bool
	nonces      *bufio.Reader
}

// pairKey identifies one session-key derivation: the unordered public-key
// pair, the program measurement mixed into the keys, and the derivation
// mode (a model-KEX enclave must never share entries with a real-ECDH
// one).
type pairKey struct {
	pair     xcrypto.PairID
	meas     xcrypto.Measurement
	modelKEX bool
}

// KeyCache hands pairwise session keys from one end of a pair to the
// other across the enclaves of one deployment. The Diffie-Hellman
// derivation is symmetric in the pair — both the real ECDH and the model
// KEX order the public keys canonically — so when enclave i derives the
// link keys toward j, enclave j's derivation toward i is the identical
// computation. The first end to open a pair derives and leaves the keys
// here; the second end takes them out, and if it asks while the first is
// still deriving, it waits for that result rather than computing it again.
// So a pair is derived once however its two ends race, the keys do not
// depend on which end opens a pair first (a channel is opened at its first
// frame, by either side), and the cache holds only the pairs with one end
// open: nobody asks for a pair's keys a third time, because each end keeps
// its prepared cipher state in its Link.
//
// Nothing is memoized beyond that. A relaunched enclave with new key
// material derives afresh, and whatever its predecessor left waiting is
// never taken; a relaunch that replays the old key material
// (deploy.Restart) takes what is waiting or, for a pair both ends had
// opened, derives again and leaves an entry nobody takes until the next
// replay does — one per pair at most.
//
// The cache is safe for concurrent use: a deployment opens its peers'
// channels on a worker pool, and the simulator's lanes open them from
// several goroutines in mid-run. It exists purely as a simulation-side
// optimization — a live SGX node holds only its own private key and cannot
// share derivations — which is why it is opt-in via WithKeyCache and never
// enabled by the TCP runtime.
type KeyCache struct {
	mu      sync.Mutex
	settled sync.Cond // broadcast whenever a derivation ends
	m       map[pairKey]pairEntry
	derived int
}

// pairEntry is one pair's keys on their way from the end that derives them
// to the end that takes them.
type pairEntry struct {
	keys    xcrypto.SessionKeys
	derived bool // keys is set; until then the pair's first end is deriving
}

// NewKeyCache creates an empty cache, typically one per deployment.
func NewKeyCache() *KeyCache {
	c := &KeyCache{m: make(map[pairKey]pairEntry)}
	c.settled.L = &c.mu
	return c
}

// take returns the keys the pair's other end derived, waiting for them if
// it is deriving them still. ok is false when no end has asked before: the
// caller is then the end that derives, and leave settles its derivation.
func (c *KeyCache) take(k pairKey) (keys xcrypto.SessionKeys, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		e, ok := c.m[k]
		if !ok {
			c.m[k] = pairEntry{}
			c.derived++
			return xcrypto.SessionKeys{}, false
		}
		if e.derived {
			c.remove(k)
			return e.keys, true
		}
		c.settled.Wait()
	}
}

// leave settles the derivation take left to the caller: the keys wait for
// the pair's other end, or go to it if it waits already. A derivation that
// failed leaves nothing, and an end waiting for it derives itself.
func (c *KeyCache) leave(k pairKey, keys xcrypto.SessionKeys, err error) {
	c.mu.Lock()
	if err != nil {
		c.remove(k)
	} else {
		c.m[k] = pairEntry{keys: keys, derived: true}
	}
	c.mu.Unlock()
	c.settled.Broadcast()
}

// remove deletes k's entry. A map that drains is replaced: a Go map keeps
// the buckets of its fullest moment, here a prefetch's worth of pairs.
func (c *KeyCache) remove(k pairKey) {
	if delete(c.m, k); len(c.m) == 0 {
		c.m = make(map[pairKey]pairEntry)
	}
}

// Len returns the number of pairs waiting for their second end.
func (c *KeyCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.m)
}

// Derived returns the number of key agreements computed through the
// cache: one per pair whose ends opened, plus one per pair a replayed
// enclave opened again.
func (c *KeyCache) Derived() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.derived
}

// Option configures Launch.
type Option func(*Enclave)

// WithModelKEX replaces the X25519 computation in SessionKeys with a
// hash-based derivation over the (attested) public keys and the program
// measurement. Both sides still derive equal keys, distinct pairs and
// distinct programs still derive unrelated keys, but no elliptic-curve
// work happens — the simulation-mode analogue of channel.ModelSealer,
// used by large-N experiment sweeps whose setup phase would otherwise be
// dominated by N^2 ECDH operations. The structural guarantee is
// unchanged: only the two enclaves (which alone hold the derivation
// path) ever produce these keys. Never use outside simulations.
func WithModelKEX() Option {
	return func(e *Enclave) { e.modelKEX = true }
}

// WithKeyCache shares a deployment-wide session-key cache with this
// enclave, so of the symmetric (i,j)/(j,i) derivations the second takes
// over what the first computed. Simulation-only; see KeyCache.
func WithKeyCache(c *KeyCache) Option {
	return func(e *Enclave) { e.keyCache = c }
}

// Launch creates a fresh enclave running the given protocol program. A
// relaunch produces entirely new key material and sequence state, which is
// why (per Section 3.1 / P6) a restarted byzantine enclave cannot rejoin an
// ongoing execution. rng nil means crypto/rand; clock must be non-nil.
func Launch(program []byte, id wire.NodeID, rng io.Reader, clock Clock, opts ...Option) (*Enclave, error) {
	if clock == nil {
		return nil, errors.New("enclave: nil clock")
	}
	if rng == nil {
		rng = rand.Reader
	}
	dh, err := xcrypto.GenerateKeyPair(rng)
	if err != nil {
		return nil, fmt.Errorf("enclave: launch: %w", err)
	}
	now := clock.Now()
	e := &Enclave{
		id:          id,
		measurement: xcrypto.Measure(program),
		rng:         rng,
		clock:       clock,
		launchedAt:  now,
		reference:   now,
		dh:          dh,
	}
	for _, opt := range opts {
		opt(e)
	}
	return e, nil
}

// ID returns the peer identifier this enclave was launched for.
func (e *Enclave) ID() wire.NodeID { return e.id }

// Measurement returns H(pi), the measurement of the loaded program.
func (e *Enclave) Measurement() xcrypto.Measurement { return e.measurement }

// DHPublic returns the enclave's Diffie-Hellman public key, generated
// inside the enclave during launch (the setup phase of Section 4.1).
func (e *Enclave) DHPublic() [xcrypto.PublicKeySize]byte { return e.dh.Public() }

// SessionKeys derives the shared directional keys with a remote enclave,
// binding the program measurement into the derivation: two enclaves agree
// on keys only if they run the same program, which is how property P1/P2
// rejects messages from modified programs (Theorem A.2, step 2).
//
// The returned keys are raw material, not prepared cipher state: the
// channel layer hands them to channel.NewLink, which (for the real
// sealer) expands them once into a per-link xcrypto.LinkCipher — AES key
// schedule plus HMAC pad states. That prepared state lives in the Link,
// never in the enclave KeyCache; the cache holds only the 64 key bytes
// until the pair's other end takes them, so neither that hand-over nor a
// fresh derivation can invalidate a live link's cipher.
func (e *Enclave) SessionKeys(remote [xcrypto.PublicKeySize]byte) (xcrypto.SessionKeys, error) {
	if e.halted {
		return xcrypto.SessionKeys{}, ErrHalted
	}
	if e.keyCache == nil {
		return e.deriveSessionKeys(remote)
	}
	ck := pairKey{
		pair:     xcrypto.MakePairID(e.DHPublic(), remote),
		meas:     e.measurement,
		modelKEX: e.modelKEX,
	}
	if keys, ok := e.keyCache.take(ck); ok {
		return keys, nil
	}
	keys, err := e.deriveSessionKeys(remote)
	e.keyCache.leave(ck, keys, err)
	return keys, err
}

// deriveSessionKeys is the key agreement itself.
func (e *Enclave) deriveSessionKeys(remote [xcrypto.PublicKeySize]byte) (xcrypto.SessionKeys, error) {
	var keys xcrypto.SessionKeys
	if e.modelKEX {
		keys = modelSessionKeys(e.DHPublic(), remote)
	} else {
		var err error
		keys, err = e.dh.DeriveSessionKeys(remote)
		if err != nil {
			return xcrypto.SessionKeys{}, err
		}
	}
	// Mix H(pi) into both keys so that a peer running program pi' != pi
	// derives unrelated keys and every envelope it produces fails to
	// authenticate. The handed-over value is the bound result: only an
	// enclave with the identical measurement can take it.
	keys.Enc = bindMeasurement(keys.Enc, e.measurement, "enc")
	keys.Mac = bindMeasurement(keys.Mac, e.measurement, "mac")
	return keys, nil
}

func bindMeasurement(key [xcrypto.KeySize]byte, m xcrypto.Measurement, label string) [xcrypto.KeySize]byte {
	// Sized for the two three-byte labels so the hash input stays on the
	// stack: this runs twice per link during cluster setup.
	var buf [len("bind/enc/") + xcrypto.KeySize + xcrypto.MeasurementSize]byte
	in := append(buf[:0], "bind/"...)
	in = append(in, label...)
	in = append(in, '/')
	in = append(in, key[:]...)
	return xcrypto.Measure(append(in, m[:]...))
}

// modelSessionKeys derives pairwise-symmetric session keys from the two
// public keys, ordered canonically (see WithModelKEX).
func modelSessionKeys(a, b [xcrypto.PublicKeySize]byte) xcrypto.SessionKeys {
	lo, hi := a, b
	for i := range lo {
		if lo[i] != hi[i] {
			if lo[i] > hi[i] {
				lo, hi = hi, lo
			}
			break
		}
	}
	body := append(append([]byte("model-kex/"), lo[:]...), hi[:]...)
	var keys xcrypto.SessionKeys
	keys.Enc = xcrypto.Measure(append(body, 'e'))
	keys.Mac = xcrypto.Measure(append(append([]byte(nil), body...), 'm'))
	return keys
}

// nonceBatch is how many bytes of operating-system randomness one read
// fetches for envelope nonces: 32 nonces per getrandom call.
const nonceBatch = 512

// NonceReader returns the enclave's source of envelope nonces: the
// operating system's CSPRNG (crypto/rand, whatever rng the enclave was
// launched with — nonces need uniqueness, not replayability), read
// nonceBatch bytes at a time. Drawing every 16-byte nonce on its own cost
// a system call and a process-global atomic per envelope; one reader per
// enclave, shared by all its links, amortizes both and keeps the
// buffered bytes inside enclave state. Like the enclave it is not safe
// for concurrent use.
func (e *Enclave) NonceReader() io.Reader {
	if e.nonces == nil {
		e.nonces = bufio.NewReaderSize(rand.Reader, nonceBatch)
	}
	return e.nonces
}

// ReadRand fills buf with unbiased randomness (F2). The OS never observes
// these bytes (property P3): they exist only inside enclave state and
// sealed envelopes.
func (e *Enclave) ReadRand(buf []byte) error {
	if e.halted {
		return ErrHalted
	}
	if _, err := io.ReadFull(e.rng, buf); err != nil {
		return fmt.Errorf("enclave: rdrand: %w", err)
	}
	return nil
}

// RandomValue draws a fresh k-bit protocol value (k = 256).
func (e *Enclave) RandomValue() (wire.Value, error) {
	var v wire.Value
	if err := e.ReadRand(v[:]); err != nil {
		return v, err
	}
	return v, nil
}

// RandomBelow draws a uniform value in [0, n) (used by the optimized ERNG
// cluster sampling).
func (e *Enclave) RandomBelow(n uint64) (uint64, error) {
	if e.halted {
		return 0, ErrHalted
	}
	return xcrypto.RandomBelow(e.rng, n)
}

// RandomSeq draws an initial sequence number for the setup phase.
func (e *Enclave) RandomSeq() (uint64, error) {
	if e.halted {
		return 0, ErrHalted
	}
	return xcrypto.RandomUint64(e.rng)
}

// ElapsedTime returns the trusted elapsed time since the current reference
// point (F4, sgx_get_trusted_time).
func (e *Enclave) ElapsedTime() time.Duration {
	return e.clock.Now() - e.reference
}

// ResetReference moves the trusted-time reference point to now. Protocols
// call it at the synchronized start (assumption S2) so that round numbers
// computed from ElapsedTime agree across honest peers.
func (e *Enclave) ResetReference() {
	e.reference = e.clock.Now()
}

// Round returns the current round under lockstep execution (P5): rounds
// last 2*delta and are numbered from 1.
func (e *Enclave) Round(delta time.Duration) uint32 {
	if delta <= 0 {
		return 1
	}
	return uint32(e.ElapsedTime()/(2*delta)) + 1
}

// Halt executes the halt-on-divergence rule (P4): the enclave sets its
// state to bottom and refuses all further operations, churning the peer
// out of the network.
func (e *Enclave) Halt() { e.halted = true }

// Halted reports whether the enclave has halted.
func (e *Enclave) Halted() bool { return e.halted }

// Quote is a remote-attestation quote: the attestation service's statement
// that an enclave with the given measurement and report data is genuine.
// ReportData binds the enclave's DH public key and node id to the quote so
// the key exchange of the setup phase is authenticated (F3).
type Quote struct {
	NodeID      wire.NodeID
	Measurement xcrypto.Measurement
	DHPublic    [xcrypto.PublicKeySize]byte
	Signature   []byte
}

// quoteBody serializes the signed portion of a quote.
func quoteBody(id wire.NodeID, m xcrypto.Measurement, pub [xcrypto.PublicKeySize]byte) []byte {
	body := make([]byte, 0, 4+len(m)+len(pub))
	body = append(body, byte(id), byte(id>>8), byte(id>>16), byte(id>>24))
	body = append(body, m[:]...)
	body = append(body, pub[:]...)
	return body
}

// AttestationService is the simulated Intel attestation service (IAS): a
// trusted signer that vouches for genuine enclaves. One instance is shared
// by a deployment; its verification key is baked into every peer.
type AttestationService struct {
	mu  sync.Mutex
	key *xcrypto.SigningKey
}

// NewAttestationService creates a service with a fresh signing key. rng
// nil means crypto/rand.
func NewAttestationService(rng io.Reader) (*AttestationService, error) {
	key, err := xcrypto.GenerateSigningKey(rng)
	if err != nil {
		return nil, fmt.Errorf("enclave: attestation service: %w", err)
	}
	return &AttestationService{key: key}, nil
}

// VerifyKey returns the service's public verification key, distributed to
// all peers out of band (like the IAS root certificate).
func (s *AttestationService) VerifyKey() xcrypto.VerifyKey {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.key.VerifyKey()
}

// Attest issues a quote for the enclave. In real SGX this is the
// EREPORT/quoting-enclave/IAS flow; the simulation collapses it to one
// signature over (id, measurement, DH public key).
func (s *AttestationService) Attest(e *Enclave) Quote {
	// Read the key under the lock, sign outside it: Ed25519 signing is a
	// pure function of the (immutable) key, and holding the lock across it
	// would serialize the deployment builder's parallel attestation phase.
	s.mu.Lock()
	key := s.key
	s.mu.Unlock()
	q := Quote{
		NodeID:      e.ID(),
		Measurement: e.Measurement(),
		DHPublic:    e.DHPublic(),
	}
	q.Signature = key.Sign(quoteBody(q.NodeID, q.Measurement, q.DHPublic))
	return q
}

// VerifyQuote checks a quote against the service verification key and the
// expected program measurement. It returns ErrBadQuote for signature
// failures and ErrWrongMeasurement when a genuine enclave runs the wrong
// program.
func VerifyQuote(serviceKey xcrypto.VerifyKey, expected xcrypto.Measurement, q Quote) error {
	if err := serviceKey.Verify(quoteBody(q.NodeID, q.Measurement, q.DHPublic), q.Signature); err != nil {
		return ErrBadQuote
	}
	if q.Measurement != expected {
		return ErrWrongMeasurement
	}
	return nil
}
