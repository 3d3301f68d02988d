package xcrypto

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
)

// stdlibMAC is the reference: crypto/hmac over a fresh SHA-256.
func stdlibMAC(key *[KeySize]byte, body []byte) []byte {
	h := hmac.New(sha256.New, key[:])
	h.Write(body)
	return h.Sum(nil)
}

// checkMAC holds the kernel's tag against crypto/hmac for one (key,
// body), into a separate array and into the bytes that follow body the
// way SealAppend writes it, where body itself must come through intact.
func checkMAC(tb testing.TB, key *[KeySize]byte, body []byte) {
	tb.Helper()
	if !haveMACKernel {
		tb.Skip("no MAC kernel on this build or CPU")
	}
	want := stdlibMAC(key, body)
	var m macState
	m.setKey(key)
	var got [MACSize]byte
	m.tag(&got, body)
	if !bytes.Equal(got[:], want) {
		tb.Fatalf("len %d: tag %x, crypto/hmac says %x", len(body), got, want)
	}
	env := append(append(make([]byte, 0, len(body)+MACSize+8), body...), bytes.Repeat([]byte{0xA5}, MACSize+8)...)
	m.tag((*[MACSize]byte)(env[len(body):]), env[:len(body)])
	if !bytes.Equal(env[:len(body)], body) || !bytes.Equal(env[len(body):len(body)+MACSize], want) {
		tb.Fatalf("len %d: tag written after body differs from crypto/hmac", len(body))
	}
	if !bytes.Equal(env[len(body)+MACSize:], bytes.Repeat([]byte{0xA5}, 8)) {
		tb.Fatalf("len %d: wrote past the tag", len(body))
	}
}

// macEdgeLengths are the body lengths where the tail's shape changes: 55
// is the longest tail that pads within its block, 56 the first that
// needs a second, 63/64/65 straddle a whole block, and the rest repeat
// that one and two blocks up.
var macEdgeLengths = []int{0, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 129, 183, 184, 300}

// TestMACKernelEveryLength runs every body length 0…300: no, one and
// several whole blocks ahead of every tail length, so both the one- and
// the two-block padding of each.
func TestMACKernelEveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for n := 0; n <= 300; n++ {
		var key [KeySize]byte
		rng.Read(key[:])
		body := make([]byte, n)
		rng.Read(body)
		checkMAC(t, &key, body)
	}
}

// TestSHA256BlocksMatchStdlib checks the block routine alone: a message
// of 0…8 whole blocks, padded here, run from the initial value in one
// call at an odd address, is sha256.Sum256 of the message; block by block
// it is the same; and no blocks, or less than one, leave the state alone.
func TestSHA256BlocksMatchStdlib(t *testing.T) {
	if !haveMACKernel {
		t.Skip("no MAC kernel on this build or CPU")
	}
	rng := rand.New(rand.NewSource(42))
	for blocks := 0; blocks <= 8; blocks++ {
		msg := make([]byte, blocks*sha256.BlockSize)
		rng.Read(msg)
		want := sha256.Sum256(msg)
		for shift := 1; shift <= 3; shift += 2 {
			buf := make([]byte, shift+len(msg)+sha256.BlockSize)
			padded := buf[shift:]
			copy(padded, msg)
			padded[len(msg)] = 0x80
			binary.BigEndian.PutUint64(padded[len(padded)-8:], uint64(len(msg))*8)

			whole, stepped := sha256IV, sha256IV
			sha256BlocksAsm(&whole, padded)
			for off := 0; off < len(padded); off += sha256.BlockSize {
				sha256BlocksAsm(&stepped, padded[off:off+sha256.BlockSize])
			}
			var got [sha256.Size]byte
			putState(got[:], &whole)
			if got != want {
				t.Fatalf("%d blocks at shift %d: %x, sha256.Sum256 says %x", blocks, shift, got, want)
			}
			if stepped != whole {
				t.Fatalf("%d blocks at shift %d: block by block differs from one call", blocks, shift)
			}
		}
	}
	st := sha256IV
	sha256BlocksAsm(&st, nil)
	sha256BlocksAsm(&st, make([]byte, sha256.BlockSize-1))
	if st != sha256IV {
		t.Fatal("a call without a whole block changed the state")
	}
}

// FuzzMACKernel holds the kernel against crypto/hmac on arbitrary keys
// and bodies, seeded with the tail shapes the tests above pin.
func FuzzMACKernel(f *testing.F) {
	for _, n := range macEdgeLengths {
		f.Add(byte(n), make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, seed byte, body []byte) {
		keys := testKeys(seed)
		checkMAC(t, &keys.Mac, body)
	})
}

// BenchmarkMAC times one tag on each path at the body sizes (nonce +
// ciphertext) behind the 110-, 643- and 1105-byte envelopes of
// channel.BenchmarkSealOpen/real: the three-compression p50 frame of the
// erb and beacon workloads, the erb_mux mean and its large batch frame.
func BenchmarkMAC(b *testing.B) {
	keys := testKeys(78)
	for _, kernel := range []bool{true, false} {
		name := "stdlib"
		if kernel {
			if !haveMACKernel {
				continue
			}
			name = "kernel"
		}
		lc, err := newLinkCipher(&keys, haveCTRKernel, kernel)
		if err != nil {
			b.Fatal(err)
		}
		for _, size := range []int{78, 611, 1073} {
			b.Run(fmt.Sprintf("%s/%d", name, size), func(b *testing.B) {
				body := make([]byte, size)
				b.SetBytes(int64(size))
				b.ReportAllocs()
				var sum [MACSize]byte
				for i := 0; i < b.N; i++ {
					lc.tag(&sum, body)
				}
			})
		}
	}
}

// checkSum256 holds Sum256 against crypto/sha256 for one input.
func checkSum256(tb testing.TB, data []byte) {
	tb.Helper()
	if got, want := Sum256(data), sha256.Sum256(data); got != want {
		tb.Fatalf("len %d: Sum256 %x, crypto/sha256 says %x", len(data), got, want)
	}
}

// TestSum256EveryLength runs every input length 0…300 — every tail shape
// behind none, one and several whole blocks — on the block routine, and,
// in a build without the kernel, on the stdlib fallback.
func TestSum256EveryLength(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 0; n <= 300; n++ {
		data := make([]byte, n)
		rng.Read(data)
		checkSum256(t, data)
	}
}

// FuzzSum256 holds Sum256 against crypto/sha256 on arbitrary inputs,
// seeded with the tail shapes of the MAC tests.
func FuzzSum256(f *testing.F) {
	for _, n := range macEdgeLengths {
		f.Add(make([]byte, n))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSum256(t, data)
	})
}
