package xcrypto

import (
	"crypto/ed25519"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"testing"
)

// checkVerify holds verifyBatch at minLanes 1 — every group through the
// kernel where the CPU has it — and VerifyBatch against ed25519.Verify,
// lane by lane.
func checkVerify(tb testing.TB, vk VerifyKey, msgs, sigs [][]byte) {
	tb.Helper()
	ok := make([]bool, len(msgs))
	for _, minLanes := range []int{1, verifyBatchMin} {
		vk.verifyBatch(msgs, sigs, ok, minLanes)
		for i := range msgs {
			want := len(vk.pub) == ed25519.PublicKeySize && ed25519.Verify(vk.pub, msgs[i], sigs[i])
			if ok[i] != want {
				tb.Fatalf("lane %d of %d (minLanes %d), key %x, msg %x, sig %x: verdict %v, crypto/ed25519 says %v",
					i, len(msgs), minLanes, vk.pub, msgs[i], sigs[i], ok[i], want)
			}
		}
	}
}

// signer is a signing key drawn from rng.
func signer(tb testing.TB, rng *rand.Rand) (*SigningKey, VerifyKey) {
	tb.Helper()
	sk, err := GenerateSigningKey(rng)
	if err != nil {
		tb.Fatal(err)
	}
	return sk, sk.VerifyKey()
}

// TestVerifyBatchBitFlips signs random messages and flips one random bit
// of the message, R or S in 10^4 of them, each next to unflipped lanes of
// the same batch: every flipped signature is rejected in its own lane and
// every genuine one accepted, as crypto/ed25519 decides.
func TestVerifyBatchBitFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	flipped := 0
	for batch := 0; flipped < 10000; batch++ {
		sk, vk := signer(t, rng)
		n := 1 + batch%(2*BatchLanes+3)
		msgs, sigs := make([][]byte, n), make([][]byte, n)
		for i := range n {
			msgs[i] = make([]byte, rng.Intn(100))
			rng.Read(msgs[i])
			sigs[i] = sk.Sign(msgs[i])
			if rng.Intn(4) == 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				if len(msgs[i]) == 0 {
					msgs[i] = []byte{0}
				}
				msgs[i][rng.Intn(len(msgs[i]))] ^= 1 << rng.Intn(8)
			case 1:
				sigs[i][rng.Intn(32)] ^= 1 << rng.Intn(8)
			default:
				sigs[i][32+rng.Intn(32)] ^= 1 << rng.Intn(8)
			}
			flipped++
		}
		checkVerify(t, vk, msgs, sigs)
	}
}

// TestVerifyBatchMalleableS adds L to the S of genuine signatures where
// the sum still has S's top three bits clear: the same point, so only
// the canonical-S check rejects it, as crypto/ed25519 does. Their lanes
// sit beside genuine ones.
func TestVerifyBatchMalleableS(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	sk, vk := signer(t, rng)
	var msgs, sigs [][]byte
	for len(msgs) < 4*BatchLanes {
		msg := make([]byte, 68)
		rng.Read(msg)
		sig := sk.Sign(msg)
		msgs, sigs = append(msgs, msg), append(sigs, sig)
		forged := append([]byte(nil), sig...)
		carry := 0
		for i, l := range orderLBytes {
			carry += int(forged[32+i]) + int(l)
			forged[32+i], carry = byte(carry), carry>>8
		}
		if forged[63]&224 == 0 {
			msgs, sigs = append(msgs, msg), append(sigs, forged)
		}
	}
	checkVerify(t, vk, msgs, sigs)
}

// TestVerifyBatchKeys runs genuine and forged signatures under keys the
// fast path must decode as crypto/ed25519 does or hand back to it: random
// 32-byte strings (about half are no point), small-order points,
// non-canonical encodings, and keys of the wrong length.
func TestVerifyBatchKeys(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	keys := [][]byte{
		make([]byte, 31), make([]byte, 33), nil,
		identityEnc(), signBit(identityEnc()), leBytes32(t, fieldP, 1), leBytes32(t, fieldP, -1),
	}
	for i := 0; i < 64; i++ {
		k := make([]byte, 32)
		rng.Read(k)
		keys = append(keys, k)
	}
	for _, key := range keys {
		vk := VerifyKey{pub: key}
		msgs, sigs := make([][]byte, BatchLanes+1), make([][]byte, BatchLanes+1)
		for i := range msgs {
			msgs[i] = []byte{byte(i)}
			sigs[i] = make([]byte, SignatureSize)
			if i%2 == 0 {
				copy(sigs[i], identityEnc()) // R = identity, S = 0
			} else {
				rng.Read(sigs[i])
				sigs[i][63] &= 0x0f
			}
		}
		checkVerify(t, vk, msgs, sigs)
	}
}

// identityEnc is the encoding of the neutral point (0, 1).
func identityEnc() []byte { return append([]byte{1}, make([]byte, 31)...) }

// signBit sets bit 255 of an encoding.
func signBit(enc []byte) []byte {
	enc = append([]byte(nil), enc...)
	enc[31] |= 0x80
	return enc
}

// leBytes32 is the 32-byte encoding of u + k.
func leBytes32(tb testing.TB, u [32]byte, k int) []byte {
	tb.Helper()
	v := plusSmall(u, k)
	return v[:]
}

// FuzzVerifyBatch holds the batch against crypto/ed25519 on 1 to 16
// lanes. A 32-byte key is taken as it is, with the same signature bytes
// in every lane: any encoding of A, R and S. Any other key seeds a
// signing key, and every lane's genuine signature is XORed with the
// signature bytes, so empty ones leave it valid. Lane i signs the message
// less its last i bytes. The seed corpus in testdata holds the edges: S
// at L-1, L and 2^253, the top three bits set, R at or above p, the
// identity and of small order, A of small order or non-canonical, 63- and
// 65-byte signatures and the empty message.
func FuzzVerifyBatch(f *testing.F) {
	f.Add(make([]byte, 32), byte(7), []byte("msg"), make([]byte, 64))
	f.Add([]byte("seed"), byte(9), []byte("msg"), []byte{})
	f.Fuzz(func(t *testing.T, key []byte, lanes byte, msg, sig []byte) {
		n := 1 + int(lanes)%16
		msgs, sigs := make([][]byte, n), make([][]byte, n)
		for i := range n {
			msgs[i] = msg[:len(msg)-min(i, len(msg))]
		}
		var vk VerifyKey
		if len(key) == ed25519.PublicKeySize {
			vk = VerifyKey{pub: key}
			for i := range sigs {
				sigs[i] = sig
			}
		} else {
			seed := sha256.Sum256(key)
			sk := &SigningKey{priv: ed25519.NewKeyFromSeed(seed[:])}
			vk = sk.VerifyKey()
			for i := range sigs {
				sigs[i] = sk.Sign(msgs[i])
				for j := range sigs[i] {
					if len(sig) > 0 {
						sigs[i][j] ^= sig[(SignatureSize*i+j)%len(sig)]
					}
				}
			}
		}
		checkVerify(t, vk, msgs, sigs)
	})
}

// BenchmarkVerifyBatch times one check per lane on each path at 1, 2, 4
// and 8 lanes: crypto/ed25519 one by one, and one kernel call per group,
// the key's decoding and table included.
func BenchmarkVerifyBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(53))
	sk, vk := signer(b, rng)
	for _, path := range []struct {
		name     string
		minLanes int
	}{{"stdlib", BatchLanes + 1}, {"kernel", 1}} {
		if path.name == "kernel" && !haveX25519Kernel {
			continue
		}
		for _, n := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/lanes=%d", path.name, n), func(b *testing.B) {
				msgs, sigs := make([][]byte, n), make([][]byte, n)
				for i := range msgs {
					msgs[i] = make([]byte, 68) // a quote body's length
					rng.Read(msgs[i])
					sigs[i] = sk.Sign(msgs[i])
				}
				ok := make([]bool, n)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					vk.verifyBatch(msgs, sigs, ok, path.minLanes)
				}
				b.StopTimer()
				for i := range ok {
					if !ok[i] {
						b.Fatalf("lane %d rejected a genuine signature", i)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sig")
			})
		}
	}
}
