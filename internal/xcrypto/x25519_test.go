package xcrypto

import (
	"bytes"
	"crypto/ecdh"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// keyPairFrom is a KeyPair over a fixed private scalar.
func keyPairFrom(tb testing.TB, scalar [32]byte) *KeyPair {
	tb.Helper()
	kp, err := GenerateKeyPair(fixedReader(scalar[:]))
	if err != nil {
		tb.Fatal(err)
	}
	return kp
}

// fixedReader hands out its bytes on every read.
type fixedReader []byte

func (r fixedReader) Read(p []byte) (int, error) { return copy(p, r), nil }

func mustHex32(tb testing.TB, s string) [32]byte {
	tb.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != 32 {
		tb.Fatalf("bad test vector %q", s)
	}
	return [32]byte(b)
}

// checkBatch holds deriveBatch at minLanes 1 — every group through the
// kernel where the CPU has it — against DeriveSessionKeys, the crypto/ecdh
// path, lane by lane: the same keys and the same error.
func checkBatch(tb testing.TB, kp *KeyPair, remotes [][32]byte) {
	tb.Helper()
	keys := make([]SessionKeys, len(remotes))
	errs := make([]error, len(remotes))
	kp.deriveBatch(remotes, keys, errs, 1)
	for i, r := range remotes {
		want, wantErr := kp.DeriveSessionKeys(r)
		if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
			tb.Fatalf("lane %d of %d, u=%x: err %v, crypto/ecdh says %v", i, len(remotes), r, errs[i], wantErr)
		}
		if keys[i] != want {
			tb.Fatalf("lane %d of %d, u=%x: session keys differ from crypto/ecdh's", i, len(remotes), r)
		}
	}
}

// TestX25519KernelRFC7748 runs the RFC 7748 §5.2 vectors, the §5.2
// iterated function for 1 and 1000 rounds, and the §6.1 exchange.
func TestX25519KernelRFC7748(t *testing.T) {
	if !haveX25519Kernel {
		t.Skip("no kernel on this build or CPU")
	}
	x25519 := func(k, u [32]byte) [32]byte {
		var out [1][32]byte
		sched := laneSchedule(&[BatchLanes][32]byte{k})
		x25519Kernel(&sched, [][32]byte{u}, out[:])
		return out[0]
	}
	for _, v := range []struct{ k, u, out string }{
		{"a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4",
			"e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c",
			"c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"},
		{"4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d",
			"e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493",
			"95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"},
		// §6.1: each side's public key, then the shared secret both ways.
		{"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
			"0900000000000000000000000000000000000000000000000000000000000000",
			"8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"},
		{"5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
			"0900000000000000000000000000000000000000000000000000000000000000",
			"de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"},
		{"77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a",
			"de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
			"4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"},
		{"5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb",
			"8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
			"4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"},
	} {
		if got := x25519(mustHex32(t, v.k), mustHex32(t, v.u)); got != mustHex32(t, v.out) {
			t.Errorf("X25519(%s, %s) = %x, want %s", v.k, v.u, got, v.out)
		}
	}
	// The iterated function: k, u = X25519(k, u), k.
	k := mustHex32(t, "0900000000000000000000000000000000000000000000000000000000000000")
	u := k
	for i := 1; i <= 1000; i++ {
		k, u = x25519(k, u), k
		want := map[int]string{
			1:    "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
			1000: "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51",
		}[i]
		if want != "" && k != mustHex32(t, want) {
			t.Fatalf("after %d iterations k = %x, want %s", i, k, want)
		}
	}
}

// TestX25519BatchRandom runs random (scalar, u) lanes through the batch at
// every group size 1-8 and at 63 (seven full groups and one of seven),
// each against DeriveSessionKeys: 10^4 lanes in all.
func TestX25519BatchRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	lanes := 0
	for trial := 0; lanes < 10000; trial++ {
		n := 63
		if trial%9 != 8 {
			n = trial%9 + 1
		}
		var scalar [32]byte
		rng.Read(scalar[:])
		remotes := make([][32]byte, n)
		for i := range remotes {
			rng.Read(remotes[i][:])
		}
		checkBatch(t, keyPairFrom(t, scalar), remotes)
		lanes += n
	}
}

// fieldP is p = 2^255 - 19, little-endian.
var fieldP = func() (p [32]byte) {
	for i := range p {
		p[i] = 0xff
	}
	p[0], p[31] = 0xed, 0x7f
	return p
}()

// plusSmall is u + k for a small k, carried, as the 32-byte encoding.
func plusSmall(u [32]byte, k int) [32]byte {
	c := k
	for i := range u {
		c += int(u[i])
		u[i] = byte(c)
		c >>= 8
	}
	return u
}

// topBit sets bit 255, which X25519 ignores.
func topBit(u [32]byte) [32]byte {
	u[31] |= 0x80
	return u
}

// lowOrder is every u-coordinate of a point of order 1, 2, 4 or 8, where
// X25519 is zero for any scalar: 0, 1, the two of order 8, and p-1. Only
// 0 and 1 have a second encoding below 2^255, p and p+1.
func lowOrder(tb testing.TB) [][32]byte {
	tb.Helper()
	return [][32]byte{
		{}, {0: 1},
		mustHex32(tb, "e0eb7a7c3b41b8ae1656e3faf19fc46ada098deb9c32b1fd866205165f49b800"),
		mustHex32(tb, "5f9c95bca3508c24b1d0b1559c83ef5b04445cc4581c8e86d8224eddd09f1157"),
		plusSmall(fieldP, -1),
		fieldP, plusSmall(fieldP, 1),
	}
}

// edgeInputs is every low-order u with and without the top bit, and every
// other encoding at or above p: p+2 ... 2^255-1 with and without the top
// bit, 2^256-1 among them.
func edgeInputs(tb testing.TB) [][32]byte {
	tb.Helper()
	var us [][32]byte
	for _, u := range lowOrder(tb) {
		us = append(us, u, topBit(u))
	}
	for k := 2; k < 19; k++ {
		u := plusSmall(fieldP, k)
		us = append(us, u, topBit(u))
	}
	return us
}

// TestX25519BatchEdges runs the edge inputs through the batch for scalars
// at both clamping extremes and random ones, packed into full groups and
// next to ordinary lanes: a low-order u fails in its lane exactly where
// crypto/ecdh fails (and its neighbours do not), and every other u at or
// above p derives what crypto/ecdh derives from it reduced.
func TestX25519BatchEdges(t *testing.T) {
	for _, u := range lowOrder(t) {
		for _, enc := range [][32]byte{u, topBit(u)} {
			if _, err := keyPairFrom(t, [32]byte{0: 1}).DeriveSessionKeys(enc); err == nil {
				t.Fatalf("crypto/ecdh accepts u=%x, listed as low-order", enc)
			}
		}
	}
	rng := rand.New(rand.NewSource(43))
	scalars := [][32]byte{{}, topBit(plusSmall(fieldP, 18))} // all zeros, all ones
	for i := 0; i < 6; i++ {
		var s [32]byte
		rng.Read(s[:])
		scalars = append(scalars, s)
	}
	edges := edgeInputs(t)
	for _, s := range scalars {
		kp := keyPairFrom(t, s)
		checkBatch(t, kp, edges)
		for _, u := range edges {
			mixed := make([][32]byte, 5)
			for i := range mixed {
				rng.Read(mixed[i][:])
			}
			mixed[2] = u
			checkBatch(t, kp, mixed)
		}
	}
}

// FuzzX25519Batch holds the batch against crypto/ecdh on any scalar and
// any 32-byte remote keys, 1 to 16 of them (up to two groups). The seed
// corpus in testdata holds the edge inputs of TestX25519BatchEdges.
func FuzzX25519Batch(f *testing.F) {
	f.Add(make([]byte, 32), byte(7), make([]byte, 8*32))
	f.Fuzz(func(t *testing.T, scalar []byte, lanes byte, points []byte) {
		var s [32]byte
		copy(s[:], scalar)
		remotes := make([][32]byte, 1+int(lanes)%16)
		for i := range remotes {
			if len(points) > 0 {
				for j := range remotes[i] {
					remotes[i][j] = points[(32*i+j)%len(points)]
				}
			}
		}
		checkBatch(t, keyPairFrom(t, s), remotes)
	})
}

// checkPairs holds the mixed-scalar batch against DeriveSessionKeys, the
// crypto/ecdh path, pair by pair — the same keys and the same error — at
// every lane count from 1 to len(remotes): through derivePairs at minLanes
// 1, every group through the kernel where the CPU has it, and through
// DeriveSessionKeysPairs.
func checkPairs(tb testing.TB, locals []*KeyPair, remotes [][32]byte) {
	tb.Helper()
	keys := make([]SessionKeys, len(remotes))
	errs := make([]error, len(remotes))
	for n := 1; n <= len(remotes); n++ {
		for _, minLanes := range []int{1, x25519BatchMin} {
			clear(keys)
			clear(errs)
			derivePairs(locals[:n], remotes[:n], keys, errs, minLanes, nil)
			for i, r := range remotes[:n] {
				want, wantErr := locals[i].DeriveSessionKeys(r)
				if fmt.Sprint(errs[i]) != fmt.Sprint(wantErr) {
					tb.Fatalf("pair %d of %d (minLanes %d), u=%x: err %v, crypto/ecdh says %v", i, n, minLanes, r, errs[i], wantErr)
				}
				if keys[i] != want {
					tb.Fatalf("pair %d of %d (minLanes %d), u=%x: session keys differ from crypto/ecdh's", i, n, minLanes, r)
				}
			}
		}
	}
}

// FuzzX25519Pairs holds the mixed-scalar batch, each lane with its own
// scalar, against crypto/ecdh on any scalars and any 32-byte remote keys,
// at every lane count from 1 to 9 (a full group and one more). The seed
// corpus in testdata holds low-order and at-or-above-p remote keys beside
// ordinary ones, under distinct scalars and under both clamping extremes.
func FuzzX25519Pairs(f *testing.F) {
	f.Add(make([]byte, 32), byte(8), make([]byte, 9*32))
	f.Fuzz(func(t *testing.T, scalars []byte, lanes byte, points []byte) {
		n := 1 + int(lanes)%(BatchLanes+1)
		locals := make([]*KeyPair, n)
		remotes := make([][32]byte, n)
		for i := range n {
			var s [32]byte
			for j := range s {
				if len(scalars) > 0 {
					s[j] = scalars[(32*i+j)%len(scalars)]
				}
				if len(points) > 0 {
					remotes[i][j] = points[(32*i+j)%len(points)]
				}
			}
			locals[i] = keyPairFrom(t, s)
		}
		checkPairs(t, locals, remotes)
	})
}

// BenchmarkX25519Batch times one agreement per lane on each path at 1, 2,
// 4 and 8 lanes: crypto/ecdh one by one, and one kernel call per group.
func BenchmarkX25519Batch(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	var scalar [32]byte
	rng.Read(scalar[:])
	kp := keyPairFrom(b, scalar)
	for _, path := range []struct {
		name     string
		minLanes int
	}{{"ecdh", BatchLanes + 1}, {"kernel", 1}} {
		if path.name == "kernel" && !haveX25519Kernel {
			continue
		}
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/lanes=%d", path.name, n), func(b *testing.B) {
				remotes := make([][32]byte, n)
				for i := range remotes {
					rng.Read(remotes[i][:])
				}
				keys := make([]SessionKeys, n)
				errs := make([]error, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					kp.deriveBatch(remotes, keys, errs, path.minLanes)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/agreement")
			})
		}
	}
}

// ecdhPublic is crypto/ecdh's public key for a 32-byte seed.
func ecdhPublic(tb testing.TB, seed [32]byte) [32]byte {
	tb.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(seed[:])
	if err != nil {
		tb.Fatal(err)
	}
	return [32]byte(priv.PublicKey().Bytes())
}

// checkKeyPairs generates a key pair from every seed, at minLanes 1 and
// at BatchLanes+1 (crypto/ecdh only), and holds each public key and each
// agreement toward the next seed's key against crypto/ecdh.
func checkKeyPairs(tb testing.TB, seeds [][32]byte) {
	tb.Helper()
	rngs := make([]io.Reader, len(seeds))
	for _, minLanes := range []int{1, BatchLanes + 1} {
		for i := range seeds {
			rngs[i] = bytes.NewReader(seeds[i][:])
		}
		kps, err := generateKeyPairs(rngs, minLanes)
		if err != nil || len(kps) != len(seeds) {
			tb.Fatalf("%d seeds: %d key pairs, err %v", len(seeds), len(kps), err)
		}
		for i, kp := range kps {
			if want := ecdhPublic(tb, seeds[i]); kp.Public() != want {
				tb.Fatalf("seed %d of %d (minLanes %d): public key %x, crypto/ecdh says %x", i, len(seeds), minLanes, kp.Public(), want)
			}
			if kp.scalar != seeds[i] {
				tb.Fatalf("seed %d of %d: the key pair holds another scalar", i, len(seeds))
			}
		}
	}
}

// TestGenerateKeyPairsRFC7748 generates the RFC 7748 §6.1 Alice and Bob
// key pairs in one batch.
func TestGenerateKeyPairsRFC7748(t *testing.T) {
	alice := mustHex32(t, "77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a")
	bob := mustHex32(t, "5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb")
	rngs := []io.Reader{bytes.NewReader(alice[:]), bytes.NewReader(bob[:])}
	kps, err := GenerateKeyPairs(rngs)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []string{
		"8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a",
		"de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f",
	} {
		if got := kps[i].Public(); got != mustHex32(t, want) {
			t.Errorf("key pair %d: public key %x, want %s", i, got, want)
		}
	}
	ka, err := kps[0].DeriveSessionKeys(kps[1].Public())
	if err != nil {
		t.Fatal(err)
	}
	if kb, _ := kps[1].DeriveSessionKeys(kps[0].Public()); ka != kb {
		t.Fatal("Alice and Bob derive different session keys")
	}
}

// TestGenerateKeyPairsRandom holds 10^4 random seeds against crypto/ecdh
// at batch sizes 1-8, 63 and 256.
func TestGenerateKeyPairsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	sizes := []int{1, 2, 3, 4, 5, 6, 7, 8, 63, 256}
	keys := 0
	for trial := 0; keys < 10000; trial++ {
		seeds := make([][32]byte, sizes[trial%len(sizes)])
		for i := range seeds {
			rng.Read(seeds[i][:])
		}
		checkKeyPairs(t, seeds)
		keys += len(seeds)
	}
}

// TestGenerateKeyPairsOneBitApart gives the eight lanes scalars that
// differ from a common one in a single bit each, at every bit position
// clamping leaves free: a schedule transposed the wrong way, or a lane
// climbing by its neighbour's bits, gives some lane the wrong key.
func TestGenerateKeyPairsOneBitApart(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for trial := 0; trial < 4; trial++ {
		var base [32]byte
		rng.Read(base[:])
		for bit := 3; bit < 254; bit += BatchLanes {
			seeds := make([][32]byte, BatchLanes)
			for lane := range seeds {
				seeds[lane] = base
				if b := bit + lane; b < 254 {
					seeds[lane][b/8] ^= 1 << (b % 8)
				}
			}
			checkKeyPairs(t, seeds)
		}
	}
}

// TestLaneSchedule pins the transposition bit by bit: bit l of byte i is
// bit i of lane l's clamped scalar.
func TestLaneSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var scalars [BatchLanes][32]byte
	for lane := range scalars {
		rng.Read(scalars[lane][:])
	}
	sched := laneSchedule(&scalars)
	for lane, s := range scalars {
		s[0] &= 248
		s[31] = s[31]&127 | 64
		for i := range 256 {
			if got, want := sched[i]>>lane&1, s[i/8]>>(i%8)&1; got != want {
				t.Fatalf("schedule byte %d, lane %d: bit %d, the scalar's bit is %d", i, lane, got, want)
			}
		}
	}
}

// TestGenerateKeyPairsReads checks that the batch reads the readers in
// order, exactly 32 bytes each: from one shared source it generates what
// GenerateKeyPair does in a loop, and leaves the source where the loop
// does. A reader that fails stops the batch where the loop stops.
func TestGenerateKeyPairsReads(t *testing.T) {
	const n = 19
	batchSrc, loopSrc := rand.New(rand.NewSource(47)), rand.New(rand.NewSource(47))
	rngs := make([]io.Reader, n)
	for i := range rngs {
		rngs[i] = batchSrc
	}
	kps, err := GenerateKeyPairs(rngs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range n {
		want, err := GenerateKeyPair(loopSrc)
		if err != nil {
			t.Fatal(err)
		}
		if kps[i].Public() != want.Public() {
			t.Fatalf("key pair %d differs from the loop's", i)
		}
	}
	if batchSrc.Uint64() != loopSrc.Uint64() {
		t.Fatal("the batch left its source elsewhere than the loop")
	}
	for _, fail := range []int{0, 5, 8, 13} {
		for i := range rngs {
			rngs[i] = bytes.NewReader(make([]byte, 32))
		}
		rngs[fail] = bytes.NewReader(make([]byte, 31))
		kps, err := GenerateKeyPairs(rngs)
		_, want := GenerateKeyPair(bytes.NewReader(make([]byte, 31)))
		if len(kps) != fail || fmt.Sprint(err) != fmt.Sprint(want) {
			t.Fatalf("reader %d fails: %d key pairs and %v, want %d and %v", fail, len(kps), err, fail, want)
		}
		if r := rngs[fail+1].(*bytes.Reader); r.Len() != 32 {
			t.Fatalf("reader %d fails: the batch read on past it", fail)
		}
	}
}

// BenchmarkGenerateKeyPairs times one key pair per lane on each path at
// 1, 2, 4 and 8 lanes: crypto/ecdh one by one, and one kernel call per
// group.
func BenchmarkGenerateKeyPairs(b *testing.B) {
	for _, path := range []struct {
		name     string
		minLanes int
	}{{"ecdh", BatchLanes + 1}, {"kernel", 1}} {
		if path.name == "kernel" && !haveX25519Kernel {
			continue
		}
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/lanes=%d", path.name, n), func(b *testing.B) {
				src := rand.New(rand.NewSource(48))
				rngs := make([]io.Reader, n)
				for i := range rngs {
					rngs[i] = src
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := generateKeyPairs(rngs, path.minLanes); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/key")
			})
		}
	}
}
