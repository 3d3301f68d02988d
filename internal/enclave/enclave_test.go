package enclave

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
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

// TestSessionKeysBatchLeavesBeforeWaiting stages the cycle a batch must not
// close: c is deriving the pair (a, c) and will leave it only once it has
// taken (a, b) — which a's batch reserves first. A batch that waited for
// (a, c) while still holding (a, b) would wait forever; a batch that
// derives and leaves what it reserved before it waits lets c through.
// Every pair is agreed once, and a's keys are the other ends' keys.
func TestSessionKeysBatchLeavesBeforeWaiting(t *testing.T) {
	cache := NewKeyCache()
	var encls [3]*Enclave
	for i := range encls {
		e, err := Launch(testProgram, wire.NodeID(i), rand.New(rand.NewSource(int64(50+i))), &fakeClock{}, WithKeyCache(cache))
		if err != nil {
			t.Fatal(err)
		}
		encls[i] = e
	}
	a, b, c := encls[0], encls[1], encls[2]
	ac := c.pairKey(a.DHPublic())
	if _, found := cache.reserve(ac); found != pairMine {
		t.Fatalf("a fresh cache found %d for (a, c)", found)
	}

	got := make([]xcrypto.SessionKeys, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		a.SessionKeysBatch([][xcrypto.PublicKeySize]byte{b.DHPublic(), c.DHPublic()}, func(i int, keys xcrypto.SessionKeys, err error) {
			if err != nil {
				t.Error(err)
			}
			got[i] = keys
		})
	}()
	fromB := make(chan xcrypto.SessionKeys, 1)
	go func() {
		keys, err := b.SessionKeys(a.DHPublic()) // waits for a's batch to leave (a, b)
		if err != nil {
			t.Error(err)
		}
		fromB <- keys
	}()
	var bKeys xcrypto.SessionKeys
	select {
	case bKeys = <-fromB:
	case <-time.After(10 * time.Second):
		t.Fatal("a's batch never left (a, b): it waits for (a, c) while holding it")
	}
	cKeys, err := c.deriveSessionKeys(a.DHPublic())
	if err != nil {
		t.Fatal(err)
	}
	cache.leave(ac, cKeys, nil)
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a's batch never took (a, c) once c left it")
	}
	if got[0] != bKeys || got[1] != cKeys {
		t.Fatal("the batch's keys differ from the other ends'")
	}
	if cache.Len() != 0 || cache.Derived() != 2 {
		t.Fatalf("%d pairs waiting, %d agreements; want none and 2", cache.Len(), cache.Derived())
	}
}

// TestSessionKeysBatchMatchesSessionKeys holds a batch against SessionKeys
// pair by pair, for real and model key agreement, with and without a
// cache, and on a halted enclave.
func TestSessionKeysBatchMatchesSessionKeys(t *testing.T) {
	for _, model := range []bool{false, true} {
		for _, cached := range []bool{false, true} {
			var opts []Option
			if model {
				opts = append(opts, WithModelKEX())
			}
			if cached {
				opts = append(opts, WithKeyCache(NewKeyCache()))
			}
			var remotes [][xcrypto.PublicKeySize]byte
			var want []xcrypto.SessionKeys
			local, err := Launch(testProgram, 0, rand.New(rand.NewSource(60)), &fakeClock{}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			for i := 1; i <= 19; i++ { // two full groups and one of three
				r, err := Launch(testProgram, wire.NodeID(i), rand.New(rand.NewSource(int64(60+i))), &fakeClock{}, opts...)
				if err != nil {
					t.Fatal(err)
				}
				remotes = append(remotes, r.DHPublic())
				keys, err := r.SessionKeys(local.DHPublic())
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, keys)
			}
			settled := make([]int, len(remotes))
			local.SessionKeysBatch(remotes, func(i int, keys xcrypto.SessionKeys, err error) {
				settled[i]++
				if err != nil || keys != want[i] {
					t.Errorf("model=%v cached=%v: pair %d: err %v, keys equal the remote end's: %v", model, cached, i, err, keys == want[i])
				}
			})
			for i, n := range settled {
				if n != 1 {
					t.Fatalf("model=%v cached=%v: pair %d settled %d times", model, cached, i, n)
				}
			}
			local.Halt()
			local.SessionKeysBatch(remotes[:1], func(_ int, _ xcrypto.SessionKeys, err error) {
				if err != ErrHalted {
					t.Errorf("a halted enclave's batch: %v, want ErrHalted", err)
				}
			})
		}
	}
}

// TestLaunchBatchMatchesLaunch launches rosters of N enclaves both ways —
// one LaunchBatch, and Launch plus Attest one at a time — from the same
// seeded readers: every enclave must have the same DH public key, id and
// measurement, get the same quote bytes, and leave its reader where the
// other left it, as the next KiB drawn through ReadRand shows. Then the
// batched quote check must give every quote VerifyQuote's verdict.
func TestLaunchBatchMatchesLaunch(t *testing.T) {
	for _, n := range []int{1, 7, 8, 9, 64, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			svc, err := NewAttestationService(rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatal(err)
			}
			rngFor := func(i int) *rand.Rand { return rand.New(rand.NewSource(seed*1000 + int64(i))) }
			ids := make([]wire.NodeID, n)
			rngs := make([]io.Reader, n)
			clocks := make([]Clock, n)
			for i := range ids {
				ids[i], rngs[i], clocks[i] = wire.NodeID(i), rngFor(i), &fakeClock{}
			}
			batch, err := LaunchBatch(testProgram, ids, rngs, clocks)
			if err != nil || len(batch) != n {
				t.Fatalf("N=%d seed %d: %d enclaves, err %v", n, seed, len(batch), err)
			}
			quotes := make([]Quote, n)
			for i, b := range batch {
				one, err := Launch(testProgram, wire.NodeID(i), rngFor(i), &fakeClock{})
				if err != nil {
					t.Fatal(err)
				}
				quotes[i] = svc.Attest(b)
				want := svc.Attest(one)
				if b.DHPublic() != one.DHPublic() || b.ID() != one.ID() || b.Measurement() != one.Measurement() {
					t.Fatalf("N=%d seed %d: enclave %d differs from Launch's", n, seed, i)
				}
				if !reflect.DeepEqual(quotes[i], want) {
					t.Fatalf("N=%d seed %d: quote %d differs from Launch's", n, seed, i)
				}
				got, next := make([]byte, 1024), make([]byte, 1024)
				if err := b.ReadRand(got); err != nil {
					t.Fatal(err)
				}
				if err := one.ReadRand(next); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, next) {
					t.Fatalf("N=%d seed %d: enclave %d's reader is not where Launch leaves it", n, seed, i)
				}
			}
			// One quote forged, one for another program, where there is room.
			if n > 2 {
				quotes[1].Signature = append([]byte(nil), quotes[1].Signature...)
				quotes[1].Signature[40] ^= 4
				other, err := Launch([]byte("other"), 2, rngFor(2), &fakeClock{})
				if err != nil {
					t.Fatal(err)
				}
				quotes[2] = svc.Attest(other)
			}
			errs := make([]error, n)
			VerifyQuotes(svc.VerifyKey(), xcrypto.Measure(testProgram), quotes, errs)
			for i, q := range quotes {
				if want := VerifyQuote(svc.VerifyKey(), xcrypto.Measure(testProgram), q); errs[i] != want {
					t.Fatalf("N=%d seed %d: quote %d checks as %v, VerifyQuote says %v", n, seed, i, errs[i], want)
				}
			}
			if n > 2 && (errs[0] != nil || errs[1] != ErrBadQuote || errs[2] != ErrWrongMeasurement) {
				t.Fatalf("N=%d seed %d: genuine, forged and other-program quotes check as %v, %v, %v", n, seed, errs[0], errs[1], errs[2])
			}
		}
	}
}

// TestLaunchBatchStopsWhereLaunchFails holds LaunchBatch's failures to a
// loop of Launch calls: a reader that runs dry or a missing clock at
// entry k returns the k enclaves before it and Launch's error for k.
func TestLaunchBatchStopsWhereLaunchFails(t *testing.T) {
	const n = 12
	for _, k := range []int{0, 5, 8, n - 1} {
		for _, dryReader := range []bool{true, false} {
			ids := make([]wire.NodeID, n)
			rngs := make([]io.Reader, n)
			clocks := make([]Clock, n)
			for i := range ids {
				ids[i], rngs[i], clocks[i] = wire.NodeID(i), rand.New(rand.NewSource(int64(i))), &fakeClock{}
			}
			if dryReader {
				rngs[k] = bytes.NewReader(make([]byte, 10))
			} else {
				clocks[k] = nil
			}
			encls, err := LaunchBatch(testProgram, ids, rngs, clocks)
			_, want := Launch(testProgram, ids[k], rngs[k], clocks[k])
			if dryReader {
				_, want = Launch(testProgram, ids[k], bytes.NewReader(make([]byte, 10)), clocks[k])
			}
			if len(encls) != k || want == nil || fmt.Sprint(err) != fmt.Sprint(want) {
				t.Fatalf("entry %d fails (dry reader %v): %d enclaves and %v, want %d and %v", k, dryReader, len(encls), err, k, want)
			}
		}
	}
}
