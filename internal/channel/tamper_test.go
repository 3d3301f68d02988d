package channel

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
)

// tamperSizes are the erng_basic workload's p50 and p99 envelope sizes.
var tamperSizes = []int{110, 2095}

// sealPath and openPath name the two routes an envelope takes through a
// link: the generic Sealer interface under the link's keys, and the
// prepared per-link state every runtime seal and open uses.
type sealPath struct {
	name string
	seal func(l *Link, plain []byte) ([]byte, error)
}

type openPath struct {
	name string
	open func(l *Link, env []byte) ([]byte, error)
}

var sealPaths = []sealPath{
	{"generic", func(l *Link, plain []byte) ([]byte, error) { return l.sealer.SealAppend(l.keys, nil, plain) }},
	{"prepared", func(l *Link, plain []byte) ([]byte, error) { return l.SealEncodedAppend(nil, plain) }},
}

var openPaths = []openPath{
	{"generic", func(l *Link, env []byte) ([]byte, error) { return l.sealer.OpenAppend(l.keys, nil, env) }},
	{"prepared", func(l *Link, env []byte) ([]byte, error) { return l.OpenRawAppend(nil, env) }},
}

// TestTamperTable is the exhaustive detection table both sealers must
// pass on both paths: every single-bit flip anywhere in the envelope,
// every truncation and zero-extension by 1..16 bytes, another pair's
// keys and another program's measurement are all rejected, and the
// untouched envelope opens to the plaintext. For the ModelSealer the
// single-bit rows are the keyed fold's certain-detection guarantee (a
// flip is confined to one word of the body, or to one tag word); the
// length rows are what folding the body length buys — a zero-padded tail
// word alone would collide.
func TestTamperTable(t *testing.T) {
	otherProgram := []byte("erb-v1-BACKDOORED")
	for _, s := range sealers {
		a := launch(t, 0, 1, program)
		b := launch(t, 1, 2, program)
		c := launch(t, 2, 3, program)
		// Same id and launch seed as b, so the same DH key pair: only the
		// measurement bound into the session keys differs.
		evil := launch(t, 1, 2, otherProgram)
		newLink := func(l *Link, err error) *Link {
			t.Helper()
			if err != nil {
				t.Fatal(err)
			}
			return l
		}
		la := newLink(NewLink(a, 1, b.DHPublic(), s.mk()))
		lb := newLink(NewLink(b, 0, a.DHPublic(), s.mk()))
		lbc := newLink(NewLink(b, 2, c.DHPublic(), s.mk()))
		lEvil := newLink(NewLink(evil, 0, a.DHPublic(), s.mk()))

		for _, size := range tamperSizes {
			plain := make([]byte, size-la.sealer.SealedSize(0))
			rand.New(rand.NewSource(int64(size))).Read(plain)
			for _, sp := range sealPaths {
				env, err := sp.seal(la, plain)
				if err != nil {
					t.Fatal(err)
				}
				if len(env) != size {
					t.Fatalf("%s/%s: envelope is %d bytes, want %d", s.name, sp.name, len(env), size)
				}
				for _, op := range openPaths {
					t.Run(fmt.Sprintf("%s/%dB/seal=%s/open=%s", s.name, size, sp.name, op.name), func(t *testing.T) {
						got, err := op.open(lb, env)
						if err != nil || !bytes.Equal(got, plain) {
							t.Fatalf("untouched envelope: err=%v, plaintext match=%v", err, bytes.Equal(got, plain))
						}
						bad := append([]byte(nil), env...)
						for bit := 0; bit < len(env)*8; bit++ {
							bad[bit/8] ^= 1 << (bit % 8)
							if _, err := op.open(lb, bad); err == nil {
								t.Fatalf("flip of bit %d (byte %d of %d) accepted", bit%8, bit/8, len(env))
							}
							bad[bit/8] ^= 1 << (bit % 8)
						}
						for k := 1; k <= 16; k++ {
							if _, err := op.open(lb, env[:len(env)-k]); err == nil {
								t.Fatalf("envelope truncated by %d bytes accepted", k)
							}
							extended := append(append([]byte(nil), env...), make([]byte, k)...)
							if _, err := op.open(lb, extended); err == nil {
								t.Fatalf("envelope zero-extended by %d bytes accepted", k)
							}
						}
						if _, err := op.open(lbc, env); err == nil {
							t.Fatal("envelope accepted under another pair's keys")
						}
						if _, err := op.open(lEvil, env); err == nil {
							t.Fatal("envelope accepted under a different program measurement")
						}
					})
				}
			}
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

// TestModelSealPathsByteIdentical: for the same envelope counter, Seal,
// SealAppend and the prepared link emit the same bytes, at both table
// sizes. (The RealSealer draws a random nonce per envelope; its
// byte-identity is pinned with a seeded rng in xcrypto.)
func TestModelSealPathsByteIdentical(t *testing.T) {
	e := pairedEnclaves(t)
	for _, size := range tamperSizes {
		var links [3]*Link
		for i := range links {
			l, err := NewLink(e[0], 1, e[1].DHPublic(), NewModelSealer())
			if err != nil {
				t.Fatal(err)
			}
			links[i] = l
		}
		plain := make([]byte, size-links[0].sealer.SealedSize(0))
		rand.New(rand.NewSource(int64(size))).Read(plain)
		for counter := 1; counter <= 3; counter++ {
			viaSeal, err := links[0].sealer.Seal(links[0].keys, plain)
			if err != nil {
				t.Fatal(err)
			}
			viaAppend, err := links[1].sealer.SealAppend(links[1].keys, nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			viaLink, err := links[2].SealEncodedAppend(nil, plain)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(viaSeal, viaAppend) || !bytes.Equal(viaSeal, viaLink) {
				t.Fatalf("%d B, counter %d: Seal, SealAppend and prepared link diverge", size, counter)
			}
		}
	}
}
