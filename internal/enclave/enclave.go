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
	// draw is where RandomValue, RandomBelow and RandomSeq read their
	// bytes: a buffer the enclave owns, so a draw does not move one to
	// the heap on its way through io.Reader.
	draw   [len(wire.Value{})]byte
	nonces *noncePool
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

// KeyCache hands a pair's key agreement from one end of the pair to the
// other across the enclaves of one deployment. The Diffie-Hellman
// derivation is symmetric in the pair — both the real ECDH and the model
// KEX order the public keys canonically — so when enclave i derives the
// link keys toward j, enclave j's derivation toward i is the identical
// computation, and so is the cipher either end prepares from the keys.
// The first end to open a pair derives the keys, prepares the pair's
// xcrypto.LinkCipher if it seals with one (LinkCipher), and leaves both
// here; the second end takes them out, and if it asks while the first is
// still deriving, it waits for that result rather than computing it again.
// A Shareable cipher is handed over as the object itself, so the two ends
// of a pair seal and open through one; any other is not left, and the
// second end prepares its own from the keys. So a pair is derived and
// prepared once however its two ends race, the keys do not depend on
// which end opens a pair first (a channel is opened at its first frame,
// by either side), and the cache holds only the pairs with one end open:
// nobody asks for a pair a third time, because each end keeps its cipher
// state in its link.
//
// Nothing is memoized beyond that. A relaunched enclave with new key
// material derives afresh, and whatever its predecessor left waiting is
// never taken; a relaunch that replays the old key material
// (deploy.Restart) takes what is waiting or, for a pair both ends had
// opened, derives again and leaves an entry nobody takes until the next
// replay does — one per pair at most.
//
// The cache is safe for concurrent use: a deployment opens its peers'
// remaining channels on a worker pool, and the simulator's lanes open
// first-use links from several goroutines in mid-run. A link schedule
// agrees the pairs whose two ends are both closed without it
// (PairSessionKeys). It exists purely as a simulation-side
// optimization — a live SGX node holds only its own private key and cannot
// share derivations — which is why it is opt-in via WithKeyCache and never
// enabled by the TCP runtime.
type KeyCache struct {
	mu      sync.Mutex
	settled sync.Cond // broadcast whenever a derivation ends
	m       map[pairKey]pairEntry
	derived int
}

// session is what one end takes of a pair's agreement: the keys, and the
// pair's prepared cipher once an end that seals built it.
type session struct {
	keys   xcrypto.SessionKeys
	cipher *xcrypto.LinkCipher
}

// prepare builds the pair's cipher from the keys for an end that seals
// (want), unless the end that derived them built it already.
func (s *session) prepare(want bool) error {
	if !want || s.cipher != nil {
		return nil
	}
	c, err := xcrypto.NewLinkCipher(s.keys)
	s.cipher = c
	return err
}

// pairEntry is one pair's agreement on its way from the end that derives
// it to the end that takes it.
type pairEntry struct {
	session
	derived bool // session is set; until then the pair's first end is deriving
}

// NewKeyCache creates an empty cache, typically one per deployment.
func NewKeyCache() *KeyCache {
	c := &KeyCache{m: make(map[pairKey]pairEntry)}
	c.settled.L = &c.mu
	return c
}

// What reserve found for a pair.
const (
	pairTaken   = iota // the other end's keys were waiting, and are returned
	pairMine           // no end had asked: the caller derives, then leaves
	pairPending        // the other end is deriving them
)

// take returns what the pair's other end derived, waiting for it if it is
// deriving still. ok is false when no end has asked before: the caller is
// then the end that derives, and leave settles its derivation.
func (c *KeyCache) take(k pairKey) (session, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		s, found := c.reserveLocked(k)
		if found != pairPending {
			return s, found == pairTaken
		}
		c.settled.Wait()
	}
}

// reserve is take without the wait: a pair the other end is deriving comes
// back pairPending. A batch (Enclave.SessionKeysBatch) reserves this way,
// derives and leaves what it reserved, and only then takes the pending
// pairs: waiting while holding reservations could deadlock — three batches
// each holding the pair the next one waits for.
func (c *KeyCache) reserve(k pairKey) (session, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reserveLocked(k)
}

func (c *KeyCache) reserveLocked(k pairKey) (session, int) {
	e, ok := c.m[k]
	switch {
	case !ok:
		c.m[k] = pairEntry{}
		c.derived++
		return session{}, pairMine
	case e.derived:
		c.remove(k)
		return e.session, pairTaken
	}
	return session{}, pairPending
}

// leave settles the derivation take left to the caller: the keys, and the
// cipher if another goroutine may use it, wait for the pair's other end,
// or go to it if it waits already. A derivation that failed leaves
// nothing, and an end waiting for it derives itself.
func (c *KeyCache) leave(k pairKey, s session, err error) {
	if s.cipher != nil && !s.cipher.Shareable() {
		s.cipher = nil
	}
	c.mu.Lock()
	if err != nil {
		c.remove(k)
	} else {
		c.m[k] = pairEntry{session: s, derived: true}
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
// It is LaunchBatch for one enclave.
func Launch(program []byte, id wire.NodeID, rng io.Reader, clock Clock, opts ...Option) (*Enclave, error) {
	encls, err := LaunchBatch(program, []wire.NodeID{id}, []io.Reader{rng}, []Clock{clock}, opts...)
	if err != nil {
		return nil, err
	}
	return encls[0], nil
}

// LaunchBatch launches one enclave per entry of ids, rngs and clocks,
// which are of one length: encls[i] is what Launch(program, ids[i],
// rngs[i], clocks[i], opts...) returns, with the key pair drawn from the
// same 32 bytes of rngs[i] and the reader left where Launch leaves it.
// The key pairs are generated together (xcrypto.GenerateKeyPairs), eight
// to a ladder where the CPU has the kernel. Where Launch would fail for
// entry i, LaunchBatch returns the enclaves before it and Launch's error
// for it, as a loop of Launch calls stops there.
func LaunchBatch(program []byte, ids []wire.NodeID, rngs []io.Reader, clocks []Clock, opts ...Option) ([]*Enclave, error) {
	var clockErr error
	readers := make([]io.Reader, 0, len(ids))
	for i := range ids {
		if clocks[i] == nil {
			clockErr = errors.New("enclave: nil clock")
			break
		}
		rng := rngs[i]
		if rng == nil {
			rng = rand.Reader
		}
		readers = append(readers, rng)
	}
	kps, err := xcrypto.GenerateKeyPairs(readers)
	if err != nil {
		err = fmt.Errorf("enclave: launch: %w", err)
	} else {
		err = clockErr
	}
	measurement := xcrypto.Measure(program)
	encls := make([]*Enclave, len(kps))
	for i, dh := range kps {
		now := clocks[i].Now()
		e := &Enclave{
			id:          ids[i],
			measurement: measurement,
			rng:         readers[i],
			clock:       clocks[i],
			launchedAt:  now,
			reference:   now,
			dh:          dh,
		}
		for _, opt := range opts {
			opt(e)
		}
		encls[i] = e
	}
	return encls, err
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
// The returned keys are raw material; an end that seals with them asks
// for LinkCipher instead.
func (e *Enclave) SessionKeys(remote [xcrypto.PublicKeySize]byte) (xcrypto.SessionKeys, error) {
	s, err := e.session(remote, false)
	return s.keys, err
}

// LinkCipher is SessionKeys expanded into the pair's prepared cipher — the
// AES key schedule and the HMAC pad states — which the channel layer seals
// and opens through. Through a KeyCache the end that derives the keys also
// prepares the cipher, and a Shareable one is what the other end takes: the
// pair's two ends hold one immutable object, so neither a later hand-over
// nor a fresh derivation can change a live link's cipher.
func (e *Enclave) LinkCipher(remote [xcrypto.PublicKeySize]byte) (*xcrypto.LinkCipher, error) {
	s, err := e.session(remote, true)
	return s.cipher, err
}

// session is SessionKeys, with the cipher prepared when seal is set.
func (e *Enclave) session(remote [xcrypto.PublicKeySize]byte, seal bool) (session, error) {
	if e.halted {
		return session{}, ErrHalted
	}
	if e.keyCache == nil {
		return e.derive(remote, seal)
	}
	ck := e.pairKey(remote)
	if s, ok := e.keyCache.take(ck); ok {
		return s, s.prepare(seal)
	}
	s, err := e.derive(remote, seal)
	e.keyCache.leave(ck, s, err)
	return s, err
}

// derive is the key agreement toward remote, prepared when seal is set.
func (e *Enclave) derive(remote [xcrypto.PublicKeySize]byte, seal bool) (session, error) {
	keys, err := e.deriveSessionKeys(remote)
	if err != nil {
		return session{}, err
	}
	s := session{keys: keys}
	return s, s.prepare(seal)
}

// SessionKeysBatch is SessionKeys toward the key of every quote that want
// admits: it calls settle(i, keys, err) once per such i, with what
// SessionKeys(quotes[i].DHPublic) would return, and through a KeyCache
// each pair is still derived once. The pairs this enclave derives go
// xcrypto.BatchLanes at a time through
// xcrypto.KeyPair.DeriveSessionKeysBatch, one eight-lane ladder where the
// CPU has the batch kernel. With a cache, pairs are reserved without
// waiting (KeyCache.reserve) until a group is full, the group is derived
// and left; the pairs another end was deriving are taken, waiting if need
// be, only after the last group was left. A roster's quotes are what a
// peer opens its links toward, so the batch reads them where they are.
func (e *Enclave) SessionKeysBatch(quotes []Quote, want func(i int) bool, settle func(i int, keys xcrypto.SessionKeys, err error)) {
	e.sessionBatch(quotes, want, false, func(i int, s session, err error) { settle(i, s.keys, err) })
}

// LinkCiphersBatch is LinkCipher toward the key of every quote that want
// admits, as SessionKeysBatch is SessionKeys: the pairs this enclave
// derives are prepared by it, each group's ciphers in one array
// (xcrypto.NewLinkCiphers), the others taken over or prepared from the
// keys.
func (e *Enclave) LinkCiphersBatch(quotes []Quote, want func(i int) bool, settle func(i int, c *xcrypto.LinkCipher, err error)) {
	e.sessionBatch(quotes, want, true, func(i int, s session, err error) { settle(i, s.cipher, err) })
}

// sessionBatch is session toward the key of every quote that want admits,
// batched as SessionKeysBatch says.
func (e *Enclave) sessionBatch(quotes []Quote, want func(i int) bool, seal bool, settle func(i int, s session, err error)) {
	var (
		group   [xcrypto.BatchLanes][xcrypto.PublicKeySize]byte
		at      [xcrypto.BatchLanes]int
		keys    [xcrypto.BatchLanes]xcrypto.SessionKeys
		errs    [xcrypto.BatchLanes]error
		ciphers [xcrypto.BatchLanes]*xcrypto.LinkCipher
		derived [xcrypto.BatchLanes]session
		n       int
		pending []int
	)
	derive := func() {
		e.deriveBatch(group[:n], keys[:n], errs[:n])
		if seal {
			clear(ciphers[:n])
			xcrypto.NewLinkCiphers(keys[:n], ciphers[:n], errs[:n])
		}
		for j := range n {
			derived[j] = session{keys: keys[j], cipher: ciphers[j]}
			if e.keyCache != nil {
				e.keyCache.leave(e.pairKey(group[j]), derived[j], errs[j])
			}
		}
		for j := range n {
			settle(at[j], derived[j], errs[j])
		}
		n = 0
	}
	for i := range quotes {
		if !want(i) {
			continue
		}
		if e.halted {
			settle(i, session{}, ErrHalted)
			continue
		}
		r := quotes[i].DHPublic
		if e.keyCache != nil {
			switch got, found := e.keyCache.reserve(e.pairKey(r)); found {
			case pairTaken:
				err := got.prepare(seal)
				settle(i, got, err)
				continue
			case pairPending:
				pending = append(pending, i)
				continue
			}
		}
		group[n], at[n] = r, i
		if n++; n == len(group) {
			derive()
		}
	}
	if n > 0 {
		derive()
	}
	for _, i := range pending {
		got, err := e.session(quotes[i].DHPublic, seal)
		settle(i, got, err)
	}
}

// DerivesLike reports whether e and o derive a pair's keys alike: one
// program measurement and one key-exchange mode, so that what one derives
// toward the other is what the other derives back (PairSessionKeys).
func (e *Enclave) DerivesLike(o *Enclave) bool {
	return e.measurement == o.measurement && e.modelKEX == o.modelKEX
}

// PairSessionKeys is SessionKeys for pairs of enclaves, each computed once
// for both ends and without a KeyCache: keys[i] and errs[i] are what
// locals[i].SessionKeys(remotes[i]) derives, and so, for an enclave that
// holds remotes[i] and DerivesLike locals[i], what it derives back. The
// real agreements go eight to a ladder whichever enclave's scalar each
// lane carries (xcrypto.DeriveSessionKeysPairs). keys and errs must be as
// long as locals and remotes. Like the KeyCache it is a simulator
// shortcut: one process computes what the two enclaves would each
// compute alone, and a live node holds no other enclave to pair with.
func PairSessionKeys(locals []*Enclave, remotes [][xcrypto.PublicKeySize]byte, keys []xcrypto.SessionKeys, errs []error) {
	var (
		kps [xcrypto.BatchLanes]*xcrypto.KeyPair
		rs  [xcrypto.BatchLanes][xcrypto.PublicKeySize]byte
		ks  [xcrypto.BatchLanes]xcrypto.SessionKeys
		es  [xcrypto.BatchLanes]error
		at  [xcrypto.BatchLanes]int
		n   int
	)
	derive := func() {
		xcrypto.DeriveSessionKeysPairs(kps[:n], rs[:n], ks[:n], es[:n])
		for j := range n {
			keys[at[j]], errs[at[j]] = ks[j], es[j]
		}
		clear(ks[:n])
		n = 0
	}
	for i, e := range locals {
		switch {
		case e.halted:
			errs[i] = ErrHalted
		case e.modelKEX:
			keys[i], errs[i] = modelSessionKeys(e.DHPublic(), remotes[i]), nil
		default:
			kps[n], rs[n], at[n] = e.dh, remotes[i], i
			if n++; n == len(kps) {
				derive()
			}
		}
	}
	if n > 0 {
		derive()
	}
	for i, e := range locals {
		if errs[i] != nil {
			keys[i] = xcrypto.SessionKeys{}
		} else {
			keys[i] = e.bind(keys[i])
		}
	}
}

// pairKey is the key-cache entry of the pair toward remote.
func (e *Enclave) pairKey(remote [xcrypto.PublicKeySize]byte) pairKey {
	return pairKey{
		pair:     xcrypto.MakePairID(e.DHPublic(), remote),
		meas:     e.measurement,
		modelKEX: e.modelKEX,
	}
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
	return e.bind(keys), nil
}

// deriveBatch is deriveSessionKeys toward every key of remotes.
func (e *Enclave) deriveBatch(remotes [][xcrypto.PublicKeySize]byte, keys []xcrypto.SessionKeys, errs []error) {
	if e.modelKEX {
		for i, r := range remotes {
			keys[i], errs[i] = modelSessionKeys(e.DHPublic(), r), nil
		}
	} else {
		e.dh.DeriveSessionKeysBatch(remotes, keys, errs)
	}
	for i := range remotes {
		if errs[i] != nil {
			keys[i] = xcrypto.SessionKeys{}
		} else {
			keys[i] = e.bind(keys[i])
		}
	}
}

// bind mixes H(pi) into both keys so that a peer running program pi' != pi
// derives unrelated keys and every envelope it produces fails to
// authenticate. The handed-over value is the bound result: only an enclave
// with the identical measurement can take it.
func (e *Enclave) bind(keys xcrypto.SessionKeys) xcrypto.SessionKeys {
	keys.Enc = bindMeasurement(keys.Enc, e.measurement, "enc")
	keys.Mac = bindMeasurement(keys.Mac, e.measurement, "mac")
	return keys
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
	// Both bodies are built on the stack: this runs once per model pair.
	var buf [len("model-kex/") + 2*xcrypto.PublicKeySize + 1]byte
	body := append(append(append(buf[:0], "model-kex/"...), lo[:]...), hi[:]...)
	var keys xcrypto.SessionKeys
	keys.Enc = xcrypto.Measure(append(body, 'e'))
	keys.Mac = xcrypto.Measure(append(body, 'm'))
	return keys
}

// nonceBatch is how many bytes of operating-system randomness one read
// fetches for envelope nonces: 32 nonces per getrandom call.
const nonceBatch = 512

// noncePool is the enclave's stock of envelope-nonce bytes: the last left
// bytes of buf are unread, and a pool with none left — the zero pool
// among them — refills all of buf from crypto/rand. It is one object,
// made when the enclave's first real link opens: a model-sealer enclave
// draws no nonce and a cold deployment opens no link, so neither pays
// for one.
type noncePool struct {
	buf  [nonceBatch]byte
	left int
	// Pools carved side by side (CarveNoncePools) serve enclaves firing
	// on different cores: a whole number of cache lines keeps one's left
	// off its neighbour's bytes.
	_ [56]byte
}

// Read implements io.Reader: it fills p from the pool, refilling the pool
// whenever it runs dry. It fails only when crypto/rand does.
func (np *noncePool) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if np.left == 0 {
			if _, err := io.ReadFull(rand.Reader, np.buf[:]); err != nil {
				return n, err
			}
			np.left = nonceBatch
		}
		c := copy(p[n:], np.buf[nonceBatch-np.left:])
		np.left -= c
		n += c
	}
	return n, nil
}

// NonceReader returns the enclave's source of envelope nonces: the
// operating system's CSPRNG (crypto/rand, whatever rng the enclave was
// launched with — nonces need uniqueness, not replayability), read
// nonceBatch bytes at a time into a pool held in enclave state. Drawing
// every 16-byte nonce on its own cost a system call and a process-global
// atomic per envelope; one pool per enclave, shared by all its links,
// amortizes both. Like the enclave it is not safe for concurrent use.
func (e *Enclave) NonceReader() io.Reader {
	if e.nonces == nil {
		e.nonces = new(noncePool)
	}
	return e.nonces
}

// CarveNoncePools gives every enclave among encl(0..n-1) — nil skips an
// index — that has no nonce pool yet its pool, all carved from one array:
// a deployment that opens its whole mesh at once pays one object for its
// enclaves' pools instead of one each at their first real link
// (NonceReader).
func CarveNoncePools(n int, encl func(i int) *Enclave) {
	need := 0
	for i := range n {
		if e := encl(i); e != nil && e.nonces == nil {
			need++
		}
	}
	if need < 2 {
		return
	}
	pools := make([]noncePool, need)
	for i := range n {
		if e := encl(i); e != nil && e.nonces == nil {
			e.nonces, pools = &pools[0], pools[1:]
		}
	}
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
	if err := e.ReadRand(e.draw[:]); err != nil {
		return wire.Value{}, err
	}
	return e.draw, nil
}

// RandomBelow draws a uniform value in [0, n) (used by the optimized ERNG
// cluster sampling).
func (e *Enclave) RandomBelow(n uint64) (uint64, error) {
	if e.halted {
		return 0, ErrHalted
	}
	return xcrypto.RandomBelow(e.rng, (*[8]byte)(e.draw[:8]), n)
}

// RandomSeq draws an initial sequence number for the setup phase.
func (e *Enclave) RandomSeq() (uint64, error) {
	if e.halted {
		return 0, ErrHalted
	}
	return xcrypto.RandomUint64(e.rng, (*[8]byte)(e.draw[:8]))
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
// program. It is VerifyQuotes for one quote.
func VerifyQuote(serviceKey xcrypto.VerifyKey, expected xcrypto.Measurement, q Quote) error {
	var errs [1]error
	VerifyQuotes(serviceKey, expected, []Quote{q}, errs[:])
	return errs[0]
}

// VerifyQuotes is VerifyQuote for every quote: errs[i] is what
// VerifyQuote(serviceKey, expected, quotes[i]) returns, error for error.
// errs must be at least as long as quotes. Every quote is signed by the
// one service key, so the signatures are checked together
// (xcrypto.VerifyKey.VerifyBatch), eight to a kernel call where the CPU
// has it.
func VerifyQuotes(serviceKey xcrypto.VerifyKey, expected xcrypto.Measurement, quotes []Quote, errs []error) {
	bodies := make([][]byte, len(quotes))
	sigs := make([][]byte, len(quotes))
	for i, q := range quotes {
		bodies[i], sigs[i] = quoteBody(q.NodeID, q.Measurement, q.DHPublic), q.Signature
	}
	ok := make([]bool, len(quotes))
	serviceKey.VerifyBatch(bodies, sigs, ok)
	for i, q := range quotes {
		switch {
		case !ok[i]:
			errs[i] = ErrBadQuote
		case q.Measurement != expected:
			errs[i] = ErrWrongMeasurement
		default:
			errs[i] = nil
		}
	}
}
