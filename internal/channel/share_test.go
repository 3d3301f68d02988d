package channel

import (
	"errors"
	"io"
	"math/rand"
	"testing"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// launchCached launches n enclaves of one deployment: real key agreement,
// one KeyCache.
func launchCached(tb testing.TB, n int) []*enclave.Enclave {
	tb.Helper()
	cache := enclave.NewKeyCache()
	ids, rngs, clocks := make([]wire.NodeID, n), make([]io.Reader, n), make([]enclave.Clock, n)
	for i := range ids {
		ids[i], rngs[i], clocks[i] = wire.NodeID(i), rand.New(rand.NewSource(int64(40+i))), &fakeClock{}
	}
	encls, err := enclave.LaunchBatch(program, ids, rngs, clocks, enclave.WithKeyCache(cache))
	if err != nil {
		tb.Fatal(err)
	}
	return encls
}

// shared reports whether this build's link ciphers are handed over whole:
// with both kernels, a LinkCipher is immutable and Shareable.
func shared(tb testing.TB) bool {
	tb.Helper()
	c, err := xcrypto.NewLinkCipher(xcrypto.SessionKeys{})
	if err != nil {
		tb.Fatal(err)
	}
	return c.Shareable()
}

// TestPairSharesOneCipher: through the enclaves' key cache the two ends of
// a pair hold one *LinkCipher where it is Shareable — whether an end
// opened alone or in a batch — and model links the same seed; and what
// one end seals the other opens.
func TestPairSharesOneCipher(t *testing.T) {
	encls := launchCached(t, 3)
	a, b, c := encls[0], encls[1], encls[2]
	ab := mustLink(t, a, 1, b.DHPublic(), RealSealer{})
	ba := mustLink(t, b, 0, a.DHPublic(), RealSealer{})
	if (ab.cipher == ba.cipher) != shared(t) {
		t.Fatalf("ends of one pair share a cipher: %v; Shareable: %v", ab.cipher == ba.cipher, shared(t))
	}
	lc, err := NewLocal(c, RealSealer{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	var row [3]End // c's ends; its own entry stays unopened
	quotes := make([]enclave.Quote, len(encls))
	for i, e := range encls {
		quotes[i] = enclave.Quote{NodeID: e.ID(), DHPublic: e.DHPublic()}
	}
	settled := 0
	lc.EstablishBatch(quotes, func(i int) *End {
		if i == 2 {
			return nil
		}
		return &row[i]
	}, func(i int, err error) {
		settled++
		if err != nil {
			t.Fatal(err)
		}
	})
	ca, cb := &row[0], &row[1]
	if settled != 2 || row[2] != (End{}) {
		t.Fatalf("a batch toward two peers settled %d and touched c's own entry: %v", settled, row[2] != (End{}))
	}
	ac := mustLink(t, a, 2, c.DHPublic(), RealSealer{})
	if (ca.cipher == ac.cipher) != shared(t) || ca.cipher == cb.cipher {
		t.Fatal("a batch did not hand its ciphers over pair by pair")
	}
	for _, p := range [][2]*Link{{ab, ba}, {ba, ab}, {ac, {End: *ca, local: lc}}} {
		if _, err := openMsg(p[1], sealMsg(t, p[0], testMsg(0))); err != nil {
			t.Fatalf("the pair's other end does not open: %v", err)
		}
	}
	am := mustLink(t, a, 1, b.DHPublic(), NewModelSealer())
	bm := mustLink(t, b, 0, a.DHPublic(), NewModelSealer())
	if am.cipher != nil || am.seed == 0 || am.seed != bm.seed {
		t.Fatal("model ends of one pair hold different seeds")
	}
}

// TestEstablishPairsAgreesOnceForBothEnds: a pair opened at both ends by
// EstablishPairs gives its two ends one cipher where it is Shareable (one
// model seed for model links), the one Establish derives; the ends open
// what the other seals. A pair whose local enclave halted fails, and
// Adopt opens nothing from it.
func TestEstablishPairsAgreesOnceForBothEnds(t *testing.T) {
	for _, sealer := range []func() Sealer{func() Sealer { return RealSealer{} }, func() Sealer { return NewModelSealer() }} {
		encls := launchCached(t, 3)
		encls[2].Halt()
		locals := make([]Local, len(encls))
		for i, e := range encls {
			var err error
			if locals[i], err = NewLocal(e, sealer(), nil); err != nil {
				t.Fatal(err)
			}
		}
		pairs := []Pair{
			{Local: &locals[0], Remote: 1, RemotePub: encls[1].DHPublic()},
			{Local: &locals[2], Remote: 0, RemotePub: encls[0].DHPublic()},
		}
		ends := make([]PairEnds, len(pairs))
		if err := EstablishPairs(ends, func(k int) Pair { return pairs[k] }); !errors.Is(err, enclave.ErrHalted) {
			t.Fatalf("EstablishPairs with a halted enclave: %v, want ErrHalted", err)
		}
		var ab, ba, dead End
		if !locals[0].Adopt(&ab, &ends[0], false) || !locals[1].Adopt(&ba, &ends[0], true) {
			t.Fatal("a prepared end was not adopted")
		}
		if locals[2].Adopt(&dead, &ends[1], false) || dead != (End{}) {
			t.Fatal("a failed pair's end was adopted")
		}
		ref := mustLink(t, encls[0], 1, encls[1].DHPublic(), sealer())
		if ab.cipher == nil {
			if ab.seed != ba.seed || ab.seed != ref.seed {
				t.Fatal("model ends of one pair hold other seeds than Establish derives")
			}
		} else {
			if (ab.cipher == ba.cipher) != shared(t) {
				t.Fatalf("ends of one pair share a cipher: %v; Shareable: %v", ab.cipher == ba.cipher, shared(t))
			}
			plain := []byte("one agreement, two ends")
			x, err := ab.cipher.SealAppend(nil, rand.New(rand.NewSource(1)), plain)
			if err != nil {
				t.Fatal(err)
			}
			y, err := ref.cipher.SealAppend(nil, rand.New(rand.NewSource(1)), plain)
			if err != nil || string(x) != string(y) {
				t.Fatalf("the pair's cipher seals other bytes than Establish's: %v", err)
			}
		}
		for _, p := range [][2]*Link{
			{{End: ab, local: locals[0]}, {End: ba, local: locals[1]}},
			{{End: ba, local: locals[1]}, {End: ab, local: locals[0]}},
		} {
			if _, err := openMsg(p[1], sealMsg(t, p[0], testMsg(0))); err != nil {
				t.Fatalf("the pair's other end does not open: %v", err)
			}
		}
	}
}
