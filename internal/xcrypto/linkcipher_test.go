package xcrypto

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"unsafe"
)

// testKeys derives a deterministic key pair for cipher tests.
func testKeys(seed byte) SessionKeys {
	var keys SessionKeys
	for i := range keys.Enc {
		keys.Enc[i] = seed + byte(i)
		keys.Mac[i] = seed ^ byte(i*3+1)
	}
	return keys
}

// linkPaths returns a LinkCipher on every (CTR path × MAC path)
// combination this build and host have: the portable pair always, each
// kernel when the CPU has it.
func linkPaths(tb testing.TB, keys SessionKeys) map[string]*LinkCipher {
	tb.Helper()
	paths := map[string]*LinkCipher{}
	for _, ctr := range []bool{false, true} {
		for _, mac := range []bool{false, true} {
			if ctr && !haveCTRKernel || mac && !haveMACKernel {
				continue
			}
			lc, err := newLinkCipher(&keys, ctr, mac)
			if err != nil {
				tb.Fatal(err)
			}
			if (lc.portable == nil) != ctr || (lc.mac == nil) != mac {
				tb.Fatalf("newLinkCipher(ctrKernel=%v, macKernel=%v) took another path", ctr, mac)
			}
			paths[fmt.Sprintf("ctrKernel=%v,macKernel=%v", ctr, mac)] = lc
		}
	}
	return paths
}

// TestLinkCipherSealByteIdentical pins the tentpole equivalence: under
// the same keys and the same nonce stream, LinkCipher.SealAppend emits
// exactly the bytes the one-shot Seal does (which uses the stdlib
// crypto/cipher CTR implementation, so this also pins the manual CTR).
func TestLinkCipherSealByteIdentical(t *testing.T) {
	keys := testKeys(7)
	for name, lc := range linkPaths(t, keys) {
		t.Run(name, func(t *testing.T) { sealByteIdentical(t, keys, lc) })
	}
}

func sealByteIdentical(t *testing.T, keys SessionKeys, lc *LinkCipher) {
	// Plaintext lengths spanning zero, partial, exact and multi-block for
	// the CTR (16-byte blocks) and, with the nonce ahead of them, for the
	// MAC's padding (39/40 and 47/48 are its 55/56 and 63/64).
	for _, n := range []int{0, 1, 15, 16, 17, 31, 32, 33, 39, 40, 47, 48, 100, 257, 1024} {
		plaintext := make([]byte, n)
		rand.New(rand.NewSource(int64(n))).Read(plaintext)
		// Identical nonce streams for the two paths.
		rngA := rand.New(rand.NewSource(99))
		rngB := rand.New(rand.NewSource(99))
		want, err := Seal(keys, rngA, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lc.SealAppend(nil, rngB, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, got) {
			t.Fatalf("len %d: SealAppend differs from Seal", n)
		}
		// Both one-shot Open and prepared OpenAppend accept the result.
		viaOpen, err := Open(keys, got)
		if err != nil {
			t.Fatal(err)
		}
		viaAppend, err := lc.OpenAppend(nil, got)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(viaOpen, plaintext) || !bytes.Equal(viaAppend, plaintext) {
			t.Fatalf("len %d: recovered plaintext differs", n)
		}
	}
}

// TestLinkCipherAppendsToPrefix checks the append contract: existing dst
// content is preserved and the envelope/plaintext lands after it.
func TestLinkCipherAppendsToPrefix(t *testing.T) {
	keys := testKeys(3)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	prefix := []byte("prefix")
	plaintext := []byte("the payload")
	out, err := lc.SealAppend(append([]byte(nil), prefix...), rand.New(rand.NewSource(5)), plaintext)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(out, prefix) {
		t.Fatal("SealAppend clobbered the dst prefix")
	}
	env := out[len(prefix):]
	if len(env) != SealedSize(len(plaintext)) {
		t.Fatalf("envelope size %d, want %d", len(env), SealedSize(len(plaintext)))
	}
	opened, err := lc.OpenAppend(append([]byte(nil), prefix...), env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(opened, prefix) || !bytes.Equal(opened[len(prefix):], plaintext) {
		t.Fatalf("OpenAppend result %q", opened)
	}
}

// TestLinkCipherOpenRejects mirrors Open's rejections: short input, and
// any single flipped bit across the whole envelope. dst must stay
// untouched on failure.
func TestLinkCipherOpenRejects(t *testing.T) {
	for name, lc := range linkPaths(t, testKeys(11)) {
		t.Run(name, func(t *testing.T) { openRejects(t, lc) })
	}
}

func openRejects(t *testing.T, lc *LinkCipher) {
	env, err := lc.SealAppend(nil, rand.New(rand.NewSource(1)), []byte("guarded"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lc.OpenAppend(nil, env[:NonceSize+MACSize-1]); err != ErrShortCiphertext {
		t.Fatalf("short input: got %v", err)
	}
	for i := range env {
		bad := append([]byte(nil), env...)
		bad[i] ^= 0x20
		dst := []byte("keep")
		out, err := lc.OpenAppend(dst, bad)
		if err == nil {
			t.Fatalf("flip at byte %d accepted", i)
		}
		if out != nil || string(dst) != "keep" {
			t.Fatalf("flip at byte %d mutated dst", i)
		}
	}
}

// TestCTRXORMatchesStdlib drives the manual CTR directly against
// crypto/cipher.NewCTR over many lengths and IVs, including IVs whose
// low 64 bits are all ones — the first block increment carries into the
// high counter word — and the all-ones IV, which wraps to zero.
func TestCTRXORMatchesStdlib(t *testing.T) {
	keys := testKeys(42)
	lc, err := NewLinkCipher(keys)
	if err != nil {
		t.Fatal(err)
	}
	block, err := aes.NewCipher(keys.Enc[:])
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for trial := 0; trial < 64; trial++ {
		iv := make([]byte, NonceSize)
		rng.Read(iv)
		src := make([]byte, rng.Intn(200))
		if trial%4 == 0 {
			// Carry out of the low word on the first increment; three
			// blocks so the carried counter is used.
			for i := NonceSize / 2; i < NonceSize; i++ {
				iv[i] = 0xFF
			}
			src = make([]byte, 3*NonceSize+trial)
		}
		if trial == 8 {
			for i := range iv {
				iv[i] = 0xFF
			}
		}
		rng.Read(src)
		want := make([]byte, len(src))
		cipher.NewCTR(block, iv).XORKeyStream(want, src)
		got := make([]byte, len(src))
		lc.ctrXOR(iv, got, src)
		if !bytes.Equal(want, got) {
			t.Fatalf("trial %d (len %d): ctrXOR diverges from crypto/cipher CTR", trial, len(src))
		}
	}
}

// TestLinkCipherSteadyStateAllocs pins the zero-allocation property of
// the warm hot path: sealing into a buffer with capacity and opening
// into a warm scratch must not allocate.
func TestLinkCipherSteadyStateAllocs(t *testing.T) {
	for name, lc := range linkPaths(t, testKeys(63)) {
		t.Run(name, func(t *testing.T) { steadyStateAllocs(t, lc) })
	}
}

func steadyStateAllocs(t *testing.T, lc *LinkCipher) {
	var err error
	rng := rand.New(rand.NewSource(2))
	plaintext := make([]byte, 100)
	env := make([]byte, 0, SealedSize(len(plaintext)))
	scratch := make([]byte, 0, len(plaintext))
	// Warm up: the stdlib HMAC caches its marshaled pad states on first
	// use, and the rng warms its own internals.
	for i := 0; i < 3; i++ {
		if env, err = lc.SealAppend(env[:0], rng, plaintext); err != nil {
			t.Fatal(err)
		}
		if scratch, err = lc.OpenAppend(scratch[:0], env); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		env, err = lc.SealAppend(env[:0], rng, plaintext)
		if err != nil {
			t.Fatal(err)
		}
		scratch, err = lc.OpenAppend(scratch[:0], env)
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm seal+open allocated %.1f times per op, want 0", allocs)
	}
}

// TestSharedCipherSealWhileOpen has the two ends of a pair seal and open
// at the same time, each on its own goroutine, on every path: where the
// cipher is Shareable both ends hold the one object (as the enclave key
// cache hands it over), elsewhere each end builds its own. Under -race a
// write to a cipher both ends hold fails it.
func TestSharedCipherSealWhileOpen(t *testing.T) {
	keys := testKeys(71)
	for name, a := range linkPaths(t, keys) {
		t.Run(name, func(t *testing.T) {
			ctr, mac := a.portable == nil, a.mac == nil
			if a.Shareable() != (ctr && mac) {
				t.Fatalf("Shareable() = %v with ctrKernel=%v, macKernel=%v", a.Shareable(), ctr, mac)
			}
			b := a
			if !a.Shareable() {
				var err error
				if b, err = newLinkCipher(&keys, ctr, mac); err != nil {
					t.Fatal(err)
				}
			}
			const envelopes = 200
			plaintext := func(i int) []byte {
				p := make([]byte, (i*37)%300)
				for j := range p {
					p[j] = byte(i + j)
				}
				return p
			}
			toA, toB := make(chan []byte, envelopes), make(chan []byte, envelopes)
			end := func(seed int64, c *LinkCipher, out chan<- []byte, in <-chan []byte) error {
				rng := rand.New(rand.NewSource(seed))
				var opened []byte
				for i := range envelopes {
					env, err := c.SealAppend(nil, rng, plaintext(i))
					if err != nil {
						return err
					}
					out <- env
					got := <-in
					if opened, err = c.OpenAppend(opened[:0], got); err != nil {
						return fmt.Errorf("envelope %d: %w", i, err)
					}
					if !bytes.Equal(opened, plaintext(i)) {
						return fmt.Errorf("envelope %d opened to other bytes", i)
					}
				}
				return nil
			}
			errs := make(chan error, 1)
			go func() { errs <- end(1, a, toB, toA) }()
			if err := end(2, b, toA, toB); err != nil {
				t.Error(err)
			}
			if err := <-errs; err != nil {
				t.Error(err)
			}
		})
	}
}

// TestCarvedCiphersMatchNewLinkCipher holds NewLinkCiphers against
// NewLinkCipher: a group whose derivation failed for some pairs prepares
// a cipher for each of the others, sealing the bytes NewLinkCipher's
// does, leaves the failed ones as they were, and carves what it prepares
// from one array — one object for the group where the kernels run.
func TestCarvedCiphersMatchNewLinkCipher(t *testing.T) {
	const group = 8
	keys := make([]SessionKeys, group)
	for i := range keys {
		keys[i] = testKeys(byte(30 + i))
	}
	failed := fmt.Errorf("no agreement")
	errs := make([]error, group)
	errs[2], errs[5] = failed, failed
	ciphers := make([]*LinkCipher, group)
	NewLinkCiphers(keys, ciphers, errs)
	var prev *LinkCipher
	for i, c := range ciphers {
		if errs[i] == failed {
			if c != nil {
				t.Fatalf("pair %d failed to agree and got a cipher", i)
			}
			continue
		}
		if errs[i] != nil || c == nil {
			t.Fatalf("pair %d: %v", i, errs[i])
		}
		if prev != nil && c != (*LinkCipher)(unsafe.Add(unsafe.Pointer(prev), unsafe.Sizeof(LinkCipher{}))) {
			t.Fatalf("pair %d's cipher does not follow the previous one in one array", i)
		}
		prev = c
		single, err := NewLinkCipher(keys[i])
		if err != nil {
			t.Fatal(err)
		}
		if c.Shareable() != single.Shareable() {
			t.Fatalf("pair %d: carved cipher Shareable %v, NewLinkCipher's %v", i, c.Shareable(), single.Shareable())
		}
		plain := []byte("carved or alone, one key schedule")
		a, err := c.SealAppend(nil, rand.New(rand.NewSource(int64(i))), plain)
		if err != nil {
			t.Fatal(err)
		}
		b, err := single.SealAppend(nil, rand.New(rand.NewSource(int64(i))), plain)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Fatalf("pair %d: the carved cipher seals other bytes than NewLinkCipher's", i)
		}
		if opened, err := single.OpenAppend(nil, a); err != nil || !bytes.Equal(opened, plain) {
			t.Fatalf("pair %d: NewLinkCipher's cipher does not open the carved one's envelope: %v", i, err)
		}
	}
	if !ciphers[0].Shareable() {
		return // the portable paths allocate their stdlib state per cipher
	}
	allocs := testing.AllocsPerRun(20, func() {
		clear(errs)
		NewLinkCiphers(keys, ciphers, errs)
	})
	if allocs != 1 {
		t.Fatalf("NewLinkCiphers allocated %.1f objects for a group of %d, want 1", allocs, group)
	}
}

// TestCarvedCiphersSealSideBySide has the two ends of every pair of one
// carved group seal and open at the same time, two goroutines a pair, as
// the lanes of a deployment do: where the ciphers are Shareable both ends
// hold the carved object, elsewhere each end prepares its own. Under
// -race a write to a cipher, or to a neighbour in its array, fails it.
func TestCarvedCiphersSealSideBySide(t *testing.T) {
	const group, envelopes = 8, 100
	keys := make([]SessionKeys, group)
	for i := range keys {
		keys[i] = testKeys(byte(90 + i))
	}
	carved := make([]*LinkCipher, group)
	NewLinkCiphers(keys, carved, make([]error, group))
	var wg sync.WaitGroup
	for i, a := range carved {
		b := a
		if !a.Shareable() {
			var err error
			if b, err = NewLinkCipher(keys[i]); err != nil {
				t.Fatal(err)
			}
		}
		toA, toB := make(chan []byte, envelopes), make(chan []byte, envelopes)
		end := func(seed int64, c *LinkCipher, out chan<- []byte, in <-chan []byte) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			var opened []byte
			for k := range envelopes {
				plain := []byte{byte(i), byte(k)}
				env, err := c.SealAppend(nil, rng, plain)
				if err != nil {
					t.Error(err)
					return
				}
				out <- env
				got := <-in
				if opened, err = c.OpenAppend(opened[:0], got); err != nil || !bytes.Equal(opened, plain) {
					t.Errorf("pair %d, envelope %d: %v", i, k, err)
					return
				}
			}
		}
		wg.Add(2)
		go end(1, a, toB, toA)
		go end(2, b, toA, toB)
	}
	wg.Wait()
}
