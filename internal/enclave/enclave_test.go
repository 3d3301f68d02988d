package enclave

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/wire"
)

// fakeClock is a settable Clock for tests.
type fakeClock struct {
	now time.Duration
}

func (c *fakeClock) Now() time.Duration { return c.now }

var testProgram = []byte("erb-protocol-v1")

func launch(t *testing.T, id wire.NodeID, seed int64, clock Clock) *Enclave {
	t.Helper()
	if clock == nil {
		clock = &fakeClock{}
	}
	e, err := Launch(testProgram, id, rand.New(rand.NewSource(seed)), clock)
	if err != nil {
		t.Fatalf("Launch: %v", err)
	}
	return e
}

func TestLaunchRequiresClock(t *testing.T) {
	if _, err := Launch(testProgram, 0, nil, nil); err == nil {
		t.Fatal("Launch with nil clock must fail")
	}
}

func TestSessionKeysAgreeBetweenSameProgram(t *testing.T) {
	a := launch(t, 0, 1, nil)
	b := launch(t, 1, 2, nil)
	ka, err := a.SessionKeys(b.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	kb, err := b.SessionKeys(a.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if ka != kb {
		t.Fatal("enclaves running the same program must derive equal session keys")
	}
}

func TestModelKEXEquivalence(t *testing.T) {
	clock := &fakeClock{}
	a, err := Launch(testProgram, 0, rand.New(rand.NewSource(1)), clock, WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Launch(testProgram, 1, rand.New(rand.NewSource(2)), clock, WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	c, err := Launch(testProgram, 2, rand.New(rand.NewSource(3)), clock, WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	evil, err := Launch([]byte("evil"), 3, rand.New(rand.NewSource(4)), clock, WithModelKEX())
	if err != nil {
		t.Fatal(err)
	}
	kab, err := a.SessionKeys(b.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	kba, err := b.SessionKeys(a.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if kab != kba {
		t.Fatal("model KEX must be symmetric")
	}
	kac, err := a.SessionKeys(c.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if kab == kac {
		t.Fatal("model KEX must separate pairs")
	}
	kevil, err := evil.SessionKeys(a.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if kevil == kab {
		t.Fatal("model KEX must separate programs")
	}
}

func TestSessionKeysDifferAcrossPrograms(t *testing.T) {
	clock := &fakeClock{}
	a := launch(t, 0, 1, clock)
	evil, err := Launch([]byte("erb-protocol-v1-TAMPERED"), 1, rand.New(rand.NewSource(2)), clock)
	if err != nil {
		t.Fatal(err)
	}
	ka, err := a.SessionKeys(evil.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	kevil, err := evil.SessionKeys(a.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	if ka == kevil {
		t.Fatal("a tampered program must derive different session keys (Theorem A.2 step 2)")
	}
}

func TestRelaunchProducesFreshKeys(t *testing.T) {
	clock := &fakeClock{}
	e1 := launch(t, 0, 1, clock)
	e2 := launch(t, 0, 99, clock) // relaunch with fresh entropy
	if e1.DHPublic() == e2.DHPublic() {
		t.Fatal("relaunched enclave must not recover previous key material")
	}
}

func TestRandomValueDistinct(t *testing.T) {
	e := launch(t, 0, 1, nil)
	v1, err := e.RandomValue()
	if err != nil {
		t.Fatal(err)
	}
	v2, err := e.RandomValue()
	if err != nil {
		t.Fatal(err)
	}
	if v1 == v2 {
		t.Fatal("successive random values must differ")
	}
	if v1.IsZero() {
		t.Fatal("random value is all zero (astronomically unlikely)")
	}
}

func TestElapsedTimeAndRound(t *testing.T) {
	clock := &fakeClock{now: 100 * time.Second}
	e := launch(t, 0, 1, clock)
	if got := e.ElapsedTime(); got != 0 {
		t.Fatalf("ElapsedTime at launch = %v, want 0", got)
	}
	const delta = time.Second
	tests := []struct {
		advance time.Duration
		want    uint32
	}{
		{0, 1},
		{time.Second, 1},
		{2*time.Second - time.Nanosecond, 1},
		{2 * time.Second, 2},
		{5 * time.Second, 3},
		{20 * time.Second, 11},
	}
	for _, tt := range tests {
		clock.now = 100*time.Second + tt.advance
		if got := e.Round(delta); got != tt.want {
			t.Errorf("Round after %v = %d, want %d", tt.advance, got, tt.want)
		}
	}
	if got := e.Round(0); got != 1 {
		t.Errorf("Round with non-positive delta = %d, want 1", got)
	}
}

func TestResetReference(t *testing.T) {
	clock := &fakeClock{}
	e := launch(t, 0, 1, clock)
	clock.now = 50 * time.Second
	e.ResetReference()
	if got := e.ElapsedTime(); got != 0 {
		t.Fatalf("ElapsedTime after reset = %v, want 0", got)
	}
	clock.now = 53 * time.Second
	if got := e.ElapsedTime(); got != 3*time.Second {
		t.Fatalf("ElapsedTime = %v, want 3s", got)
	}
}

func TestHaltIsTerminal(t *testing.T) {
	e := launch(t, 0, 1, nil)
	e.Halt()
	if !e.Halted() {
		t.Fatal("Halted() false after Halt")
	}
	if _, err := e.RandomValue(); err != ErrHalted {
		t.Fatalf("RandomValue after halt: got %v, want ErrHalted", err)
	}
	if _, err := e.RandomBelow(10); err != ErrHalted {
		t.Fatalf("RandomBelow after halt: got %v, want ErrHalted", err)
	}
	if _, err := e.RandomSeq(); err != ErrHalted {
		t.Fatalf("RandomSeq after halt: got %v, want ErrHalted", err)
	}
	if _, err := e.SessionKeys(e.DHPublic()); err != ErrHalted {
		t.Fatalf("SessionKeys after halt: got %v, want ErrHalted", err)
	}
}

func TestAttestationRoundTrip(t *testing.T) {
	svc, err := NewAttestationService(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	e := launch(t, 7, 1, nil)
	q := svc.Attest(e)
	if q.NodeID != 7 {
		t.Fatalf("quote node id = %d, want 7", q.NodeID)
	}
	if err := VerifyQuote(svc.VerifyKey(), e.Measurement(), q); err != nil {
		t.Fatalf("genuine quote rejected: %v", err)
	}
}

func TestAttestationRejectsForgery(t *testing.T) {
	svc, err := NewAttestationService(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	e := launch(t, 7, 1, nil)
	q := svc.Attest(e)

	// Tampered signature.
	bad := q
	bad.Signature = append([]byte(nil), q.Signature...)
	bad.Signature[0] ^= 1
	if err := VerifyQuote(svc.VerifyKey(), e.Measurement(), bad); err != ErrBadQuote {
		t.Fatalf("tampered quote: got %v, want ErrBadQuote", err)
	}

	// Swapped DH key (the A2 forgery the setup phase must catch).
	bad = q
	bad.DHPublic[0] ^= 1
	if err := VerifyQuote(svc.VerifyKey(), e.Measurement(), bad); err != ErrBadQuote {
		t.Fatalf("quote with substituted DH key: got %v, want ErrBadQuote", err)
	}

	// Quote from a different attestation service.
	other, err := NewAttestationService(rand.New(rand.NewSource(6)))
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifyQuote(other.VerifyKey(), e.Measurement(), q); err != ErrBadQuote {
		t.Fatalf("cross-service quote: got %v, want ErrBadQuote", err)
	}
}

func TestAttestationRejectsWrongProgram(t *testing.T) {
	svc, err := NewAttestationService(rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	evil, err := Launch([]byte("malicious"), 3, rand.New(rand.NewSource(2)), &fakeClock{})
	if err != nil {
		t.Fatal(err)
	}
	q := svc.Attest(evil)
	want := launch(t, 0, 1, nil).Measurement()
	if err := VerifyQuote(svc.VerifyKey(), want, q); err != ErrWrongMeasurement {
		t.Fatalf("wrong-program quote: got %v, want ErrWrongMeasurement", err)
	}
}

// Property: RandomBelow stays in range for arbitrary bounds.
func TestQuickRandomBelow(t *testing.T) {
	e := launch(t, 0, 1, nil)
	f := func(n uint32) bool {
		bound := uint64(n%1000) + 1
		v, err := e.RandomBelow(bound)
		return err == nil && v < bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: round numbers are nondecreasing as the clock advances.
func TestQuickRoundMonotone(t *testing.T) {
	clock := &fakeClock{}
	e := launch(t, 0, 1, clock)
	f := func(steps []uint16) bool {
		clock.now = 0
		prev := e.Round(time.Second)
		for _, s := range steps {
			clock.now += time.Duration(s) * time.Millisecond
			r := e.Round(time.Second)
			if r < prev {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestKeyCacheHandsOver: the first end of a pair derives and leaves the
// keys, the second takes them out — waiting for them if it asks while the
// first still derives — so the cache holds pairs with one end open and
// every pair is derived once, however its two ends race.
func TestKeyCacheHandsOver(t *testing.T) {
	cache := NewKeyCache()
	launchCached := func(id wire.NodeID, seed int64, opts ...Option) *Enclave {
		t.Helper()
		e, err := Launch(testProgram, id, rand.New(rand.NewSource(seed)), &fakeClock{}, append(opts, WithKeyCache(cache))...)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	derive := func(e, remote *Enclave, wantLen, wantDerived int) [2][32]byte {
		t.Helper()
		keys, err := e.SessionKeys(remote.DHPublic())
		if err != nil {
			t.Fatal(err)
		}
		if cache.Len() != wantLen || cache.Derived() != wantDerived {
			t.Fatalf("%d pairs waiting, %d agreements computed; want %d and %d", cache.Len(), cache.Derived(), wantLen, wantDerived)
		}
		return [2][32]byte{keys.Enc, keys.Mac}
	}
	a, b := launchCached(0, 1), launchCached(1, 2)
	first := derive(a, b, 1, 1)
	if derive(b, a, 0, 1) != first {
		t.Fatal("the second end took over different keys")
	}
	// A relaunch that replays a's key material derives again — b's end is
	// open, nobody takes the entry — and the next replay takes it.
	if derive(launchCached(0, 1), b, 1, 2) != first || derive(launchCached(0, 1), b, 0, 2) != first {
		t.Fatal("a replayed enclave agreed on different keys")
	}
	// A relaunch with fresh key material shares nothing with the old pair.
	if derive(launchCached(0, 3), b, 1, 3) == first {
		t.Fatal("a fresh enclave agreed on the old pair's keys")
	}
	// Nor does a model-KEX enclave with a real one under the same public
	// keys: its entry is its own.
	if derive(launchCached(0, 3, WithModelKEX()), b, 2, 4) == first {
		t.Fatal("model and real key agreement shared an entry")
	}

	// Both ends of many pairs asking at the same moment: whichever way
	// each pair's race goes, it is derived once and nothing is left
	// waiting.
	cache = NewKeyCache()
	const n = 24
	encls := make([]*Enclave, n)
	for i := range encls {
		encls[i] = launchCached(wire.NodeID(i), int64(100+i), WithModelKEX())
	}
	var wg sync.WaitGroup
	for i := range encls {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range encls {
				if j == i {
					continue
				}
				if _, err := encls[i].SessionKeys(encls[j].DHPublic()); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	if pairs := n * (n - 1) / 2; cache.Len() != 0 || cache.Derived() != pairs {
		t.Fatalf("%d pairs waiting after both ends of all %d opened, %d agreements computed", cache.Len(), pairs, cache.Derived())
	}
}
