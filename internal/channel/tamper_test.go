package channel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// tamperSizes are the erng_basic workload's p50 and p99 envelope sizes.
var tamperSizes = []int{110, 2095}

// TestTamperTable is the exhaustive detection table both sealers must
// pass on the link's seal/open pair: every single-bit flip anywhere in
// the envelope, every truncation and zero-extension by 1..16 bytes,
// another pair's keys and another program's measurement are all rejected,
// and the untouched envelope opens to the plaintext. For the ModelSealer
// the single-bit rows are the keyed fold's certain-detection guarantee (a
// flip is confined to one word of the body, or to one tag word); the
// length rows are what folding the body length buys — a zero-padded tail
// word alone would collide. Rows are named seal=prepared/open=prepared:
// both ends run on the per-link state NewLink prepared, the only path.
func TestTamperTable(t *testing.T) {
	otherProgram := []byte("erb-v1-BACKDOORED")
	for _, s := range sealers {
		a := launch(t, 0, 1, program)
		b := launch(t, 1, 2, program)
		c := launch(t, 2, 3, program)
		// Same id and launch seed as b, so the same DH key pair: only the
		// measurement bound into the session keys differs.
		evil := launch(t, 1, 2, otherProgram)
		la := mustLink(t, a, 1, b.DHPublic(), s.mk())
		lb := mustLink(t, b, 0, a.DHPublic(), s.mk())
		lbc := mustLink(t, b, 2, c.DHPublic(), s.mk())
		lEvil := mustLink(t, evil, 0, a.DHPublic(), s.mk())

		for _, size := range tamperSizes {
			plain := make([]byte, size-s.mk().SealedSize(0))
			rand.New(rand.NewSource(int64(size))).Read(plain)
			env, err := la.SealEncodedAppend(nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			if len(env) != size {
				t.Fatalf("%s: envelope is %d bytes, want %d", s.name, len(env), size)
			}
			t.Run(fmt.Sprintf("%s/%dB/seal=prepared/open=prepared", s.name, size), func(t *testing.T) {
				got, err := lb.OpenRawAppend(nil, env)
				if err != nil || !bytes.Equal(got, plain) {
					t.Fatalf("untouched envelope: err=%v, plaintext match=%v", err, bytes.Equal(got, plain))
				}
				bad := append([]byte(nil), env...)
				for bit := 0; bit < len(env)*8; bit++ {
					bad[bit/8] ^= 1 << (bit % 8)
					if _, err := lb.OpenRawAppend(nil, bad); err == nil {
						t.Fatalf("flip of bit %d (byte %d of %d) accepted", bit%8, bit/8, len(env))
					}
					bad[bit/8] ^= 1 << (bit % 8)
				}
				for k := 1; k <= 16; k++ {
					if _, err := lb.OpenRawAppend(nil, env[:len(env)-k]); err == nil {
						t.Fatalf("envelope truncated by %d bytes accepted", k)
					}
					extended := append(append([]byte(nil), env...), make([]byte, k)...)
					if _, err := lb.OpenRawAppend(nil, extended); err == nil {
						t.Fatalf("envelope zero-extended by %d bytes accepted", k)
					}
				}
				if _, err := lbc.OpenRawAppend(nil, env); err == nil {
					t.Fatal("envelope accepted under another pair's keys")
				}
				if _, err := lEvil.OpenRawAppend(nil, env); err == nil {
					t.Fatal("envelope accepted under a different program measurement")
				}
			})
		}
	}
}

// TestModelTailPaddingNeedsLength pins the reason the body length is
// folded: bodies that differ only in trailing zero bytes inside the last
// word present identical words to the lanes, so only the length tells
// them apart.
func TestModelTailPaddingNeedsLength(t *testing.T) {
	for n := 1; n < 40; n++ {
		body := bytes.Repeat([]byte{0x5A}, n)
		for pad := 1; n%8+pad <= 8 && n%8 != 0; pad++ {
			padded := append(body[:n:n], make([]byte, pad)...)
			if keyedFold(7, body) == keyedFold(7, padded) {
				t.Fatalf("%d-byte body collides with itself zero-padded by %d", n, pad)
			}
		}
	}
}

// TestKeyedFoldWordChanges pins the fold's guarantee and the reason for
// its rotate: replacing any one aligned word (the tail word included)
// always changes the sum, and flipping the top bit of two words of the
// same lane — which a bare xor-multiply step would cancel exactly — does
// too.
func TestKeyedFoldWordChanges(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for n := 1; n <= 160; n++ {
		data := make([]byte, n)
		rng.Read(data)
		want := keyedFold(uint64(n), data)
		for w := 0; w*8 < n; w++ {
			changed := append([]byte(nil), data...)
			word := changed[w*8 : min(w*8+8, n)]
			for bytes.Equal(word, data[w*8:w*8+len(word)]) {
				rng.Read(word)
			}
			if keyedFold(uint64(n), changed) == want {
				t.Fatalf("%d bytes: change confined to word %d not detected", n, w)
			}
		}
		// Words w and w+4 of the 32-byte blocks share a lane.
		for w := 0; (w+5)*8 <= n-n%32; w++ {
			changed := append([]byte(nil), data...)
			changed[w*8+7] ^= 0x80
			changed[(w+4)*8+7] ^= 0x80
			if keyedFold(uint64(n), changed) == want {
				t.Fatalf("%d bytes: top-bit flips of words %d and %d cancel", n, w, w+4)
			}
		}
	}
}
