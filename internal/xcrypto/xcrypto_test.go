package xcrypto

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// detRand returns a deterministic io.Reader for reproducible key material in
// tests. Never use outside tests.
func detRand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}

func mustKeyPair(t *testing.T, seed int64) *KeyPair {
	t.Helper()
	kp, err := GenerateKeyPair(detRand(seed))
	if err != nil {
		t.Fatalf("GenerateKeyPair: %v", err)
	}
	return kp
}

func sessionFor(t *testing.T) (SessionKeys, SessionKeys) {
	t.Helper()
	a := mustKeyPair(t, 1)
	b := mustKeyPair(t, 2)
	ka, err := a.DeriveSessionKeys(b.Public())
	if err != nil {
		t.Fatalf("a.DeriveSessionKeys: %v", err)
	}
	kb, err := b.DeriveSessionKeys(a.Public())
	if err != nil {
		t.Fatalf("b.DeriveSessionKeys: %v", err)
	}
	return ka, kb
}

func TestDeriveSessionKeysAgree(t *testing.T) {
	ka, kb := sessionFor(t)
	if ka != kb {
		t.Fatalf("session keys disagree: %x vs %x", ka.Enc[:4], kb.Enc[:4])
	}
	if ka.Enc == ka.Mac {
		t.Fatal("encryption and MAC keys must differ")
	}
}

// TestDeriveSessionKeysFormula pins the derivation itself, computed here
// the long way: SHA-256 over the version prefix, the label, the X25519
// shared secret and the two public keys in ascending order. Every link
// key, and so every recorded envelope, hangs off these bytes.
func TestDeriveSessionKeysFormula(t *testing.T) {
	a, b := mustKeyPair(t, 1), mustKeyPair(t, 2)
	privA, err := a.ecdhKey()
	if err != nil {
		t.Fatal(err)
	}
	privB, err := b.ecdhKey()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := a.Public(), privA.PublicKey().Bytes(); !bytes.Equal(got[:], want) {
		t.Fatalf("Public() = %x, the private key says %x", got, want)
	}
	shared, err := privA.ECDH(privB.PublicKey())
	if err != nil {
		t.Fatal(err)
	}
	pa, pb := a.Public(), b.Public()
	lo, hi := pa[:], pb[:]
	if bytes.Compare(hi, lo) < 0 {
		lo, hi = hi, lo
	}
	want := func(label string) (out [KeySize]byte) {
		h := sha256.New()
		for _, part := range [][]byte{[]byte("sgxp2p-kdf-v1/"), []byte(label), shared, lo, hi} {
			h.Write(part)
		}
		copy(out[:], h.Sum(nil))
		return out
	}
	keys, err := a.DeriveSessionKeys(pb)
	if err != nil {
		t.Fatal(err)
	}
	if keys.Enc != want("enc") || keys.Mac != want("mac") {
		t.Fatal("DeriveSessionKeys departs from SHA-256(prefix ‖ label ‖ shared ‖ lo ‖ hi)")
	}
}

func TestDeriveSessionKeysDistinctPairs(t *testing.T) {
	a := mustKeyPair(t, 1)
	b := mustKeyPair(t, 2)
	c := mustKeyPair(t, 3)
	kab, err := a.DeriveSessionKeys(b.Public())
	if err != nil {
		t.Fatal(err)
	}
	kac, err := a.DeriveSessionKeys(c.Public())
	if err != nil {
		t.Fatal(err)
	}
	if kab == kac {
		t.Fatal("different peers must yield different session keys")
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	ka, kb := sessionFor(t)
	msgs := [][]byte{nil, {}, []byte("x"), []byte("hello enclave"), bytes.Repeat([]byte{0xAB}, 4096)}
	for _, msg := range msgs {
		sealed, err := Seal(ka, detRand(9), msg)
		if err != nil {
			t.Fatalf("Seal(%d bytes): %v", len(msg), err)
		}
		if len(sealed) != SealedSize(len(msg)) {
			t.Fatalf("sealed size = %d, want %d", len(sealed), SealedSize(len(msg)))
		}
		got, err := Open(kb, sealed)
		if err != nil {
			t.Fatalf("Open(%d bytes): %v", len(msg), err)
		}
		if !bytes.Equal(got, msg) {
			t.Fatalf("round trip mismatch: got %q want %q", got, msg)
		}
	}
}

func TestOpenRejectsTampering(t *testing.T) {
	ka, _ := sessionFor(t)
	sealed, err := Seal(ka, detRand(9), []byte("broadcast payload"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(sealed); i++ {
		mutated := append([]byte(nil), sealed...)
		mutated[i] ^= 0x01
		if _, err := Open(ka, mutated); err == nil {
			t.Fatalf("tampering byte %d was not detected", i)
		}
	}
}

func TestOpenRejectsWrongKey(t *testing.T) {
	ka, _ := sessionFor(t)
	other := mustKeyPair(t, 7)
	third := mustKeyPair(t, 8)
	kOther, err := other.DeriveSessionKeys(third.Public())
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := Seal(ka, detRand(9), []byte("secret"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(kOther, sealed); err == nil {
		t.Fatal("message opened under an unrelated key")
	}
}

func TestOpenRejectsShortCiphertext(t *testing.T) {
	ka, _ := sessionFor(t)
	if _, err := Open(ka, make([]byte, NonceSize+MACSize-1)); err != ErrShortCiphertext {
		t.Fatalf("got %v, want ErrShortCiphertext", err)
	}
}

func TestSealProducesFreshNonces(t *testing.T) {
	ka, _ := sessionFor(t)
	s1, err := Seal(ka, nil, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Seal(ka, nil, []byte("same"))
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(s1, s2) {
		t.Fatal("two seals of the same plaintext must differ (fresh nonce)")
	}
}

func TestMeasureDeterministic(t *testing.T) {
	m1 := Measure([]byte("erb-v1"))
	m2 := Measure([]byte("erb-v1"))
	m3 := Measure([]byte("erb-v2"))
	if m1 != m2 {
		t.Fatal("measurement must be deterministic")
	}
	if m1 == m3 {
		t.Fatal("different programs must have different measurements")
	}
	if m1.String() == "" {
		t.Fatal("measurement string must be non-empty")
	}
}

func TestSignVerify(t *testing.T) {
	sk, err := GenerateSigningKey(detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("INIT:42")
	sig := sk.Sign(msg)
	if len(sig) != SignatureSize {
		t.Fatalf("signature size = %d, want %d", len(sig), SignatureSize)
	}
	if err := sk.VerifyKey().Verify(msg, sig); err != nil {
		t.Fatalf("valid signature rejected: %v", err)
	}
	if err := sk.VerifyKey().Verify([]byte("INIT:43"), sig); err == nil {
		t.Fatal("signature over different message accepted")
	}
	sig[0] ^= 1
	if err := sk.VerifyKey().Verify(msg, sig); err == nil {
		t.Fatal("corrupted signature accepted")
	}
}

func TestVerifyKeyFromBytesRoundTrip(t *testing.T) {
	sk, err := GenerateSigningKey(detRand(4))
	if err != nil {
		t.Fatal(err)
	}
	vk := sk.VerifyKey()
	vk2, err := VerifyKeyFromBytes(vk.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("echo")
	if err := vk2.Verify(msg, sk.Sign(msg)); err != nil {
		t.Fatalf("reconstructed key failed to verify: %v", err)
	}
	if _, err := VerifyKeyFromBytes([]byte("short")); err == nil {
		t.Fatal("short key bytes accepted")
	}
}

func TestRandomBelowBounds(t *testing.T) {
	rng := detRand(11)
	for _, n := range []uint64{1, 2, 3, 7, 100, 1 << 40} {
		for i := 0; i < 200; i++ {
			v, err := RandomBelow(rng, n)
			if err != nil {
				t.Fatal(err)
			}
			if v >= n {
				t.Fatalf("RandomBelow(%d) = %d out of range", n, v)
			}
		}
	}
	if _, err := RandomBelow(rng, 0); err == nil {
		t.Fatal("RandomBelow(0) must error")
	}
}

func TestRandomBelowRoughlyUniform(t *testing.T) {
	rng := detRand(13)
	const n = 8
	const draws = 8000
	var counts [n]int
	for i := 0; i < draws; i++ {
		v, err := RandomBelow(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		counts[v]++
	}
	want := draws / n
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("bucket %d count %d far from expected %d", i, c, want)
		}
	}
}

// Property: Seal followed by Open is the identity for any payload.
func TestQuickSealOpenIdentity(t *testing.T) {
	ka, kb := sessionFor(t)
	rng := detRand(17)
	f := func(payload []byte) bool {
		sealed, err := Seal(ka, rng, payload)
		if err != nil {
			return false
		}
		got, err := Open(kb, sealed)
		if err != nil {
			return false
		}
		return bytes.Equal(got, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: any single-bit flip anywhere in the sealed envelope is rejected.
func TestQuickTamperDetection(t *testing.T) {
	ka, _ := sessionFor(t)
	rng := detRand(19)
	f := func(payload []byte, pos uint16, bit uint8) bool {
		sealed, err := Seal(ka, rng, payload)
		if err != nil {
			return false
		}
		i := int(pos) % len(sealed)
		sealed[i] ^= 1 << (bit % 8)
		_, err = Open(ka, sealed)
		return err != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestECDHKeyBuiltOnceRaced derives single agreements from one fresh key
// pair on several goroutines at once, so each may be the first to build
// its crypto/ecdh key; every one must derive the keys a batch does. Run
// it under -race.
func TestECDHKeyBuiltOnceRaced(t *testing.T) {
	kp, peer := mustKeyPair(t, 11), mustKeyPair(t, 12)
	want, err := peer.DeriveSessionKeys(kp.Public())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, err := kp.DeriveSessionKeys(peer.Public())
			if err == nil && got != want {
				err = errors.New("keys differ from the other end's")
			}
			errs[g] = err
		}()
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Errorf("goroutine %d: %v", g, err)
		}
	}
}
