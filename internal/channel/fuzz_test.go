package channel

import (
	"bytes"
	"errors"
	"testing"

	"sgxp2p/internal/xcrypto"
)

// fuzzKeys is the fixed session-key pair the sealer fuzzers run under.
func fuzzKeys() xcrypto.SessionKeys {
	var keys xcrypto.SessionKeys
	for i := range keys.Enc {
		keys.Enc[i] = byte(i + 1)
		keys.Mac[i] = byte(0xA5 ^ i)
	}
	return keys
}

// fuzzSealerOpen feeds arbitrary bytes to the open of a link established
// under fixed keys: it may not panic, a rejection is ErrAuth with nothing
// returned, and an accepted input has the envelope size of the plaintext
// it opened to. The Theorem A.2 reduction (byzantine => omission) depends
// on corrupt envelopes being *rejected*, never crashing the enclave
// runtime.
func fuzzSealerOpen(f *testing.F, mk func() Sealer) {
	sealer := mk()
	link, err := newLinkFromKeys(1, fuzzKeys(), sealer)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := link.SealEncodedAppend(nil, []byte("fuzz seed payload"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1]) // truncated tag
	f.Add(valid[:15])           // shorter than any header
	f.Add([]byte{})             // empty
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(flipped)                        // bit-flipped body
	f.Add(bytes.Repeat([]byte{0xFF}, 48)) // minimum-size garbage
	f.Fuzz(func(t *testing.T, data []byte) {
		plain, err := link.OpenRawAppend(nil, data)
		if err != nil {
			if !errors.Is(err, ErrAuth) || plain != nil {
				t.Fatalf("rejection returned (%v, %v), want (nil, ErrAuth)", plain, err)
			}
			return
		}
		if want := sealer.SealedSize(len(plain)); len(data) != want {
			t.Fatalf("accepted a %d-byte envelope for a %d-byte plaintext, want %d", len(data), len(plain), want)
		}
	})
}

// FuzzRealSealerOpen fuzzes a RealSealer link's open (AES-CTR +
// HMAC-SHA256) on truncated, bit-flipped and arbitrary envelopes.
func FuzzRealSealerOpen(f *testing.F) {
	fuzzSealerOpen(f, func() Sealer { return RealSealer{} })
}

// FuzzModelSealerOpen fuzzes a ModelSealer link's open the same way.
func FuzzModelSealerOpen(f *testing.F) {
	fuzzSealerOpen(f, func() Sealer { return NewModelSealer() })
}

// FuzzLinkCipherOpen fuzzes the prepared cipher under a RealSealer link,
// cross-checking it against the stdlib reference xcrypto.Open.
func FuzzLinkCipherOpen(f *testing.F) {
	keys := fuzzKeys()
	lc, err := xcrypto.NewLinkCipher(keys)
	if err != nil {
		f.Fatal(err)
	}
	valid, err := xcrypto.Seal(keys, nil, []byte("prepared seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:xcrypto.NonceSize])
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0x80
	f.Add(mutated)
	f.Fuzz(func(t *testing.T, data []byte) {
		viaOneShot, errOneShot := xcrypto.Open(keys, data)
		viaPrepared, errPrepared := lc.OpenAppend(nil, data)
		if (errOneShot == nil) != (errPrepared == nil) {
			t.Fatalf("Open err=%v but LinkCipher.OpenAppend err=%v", errOneShot, errPrepared)
		}
		if errOneShot == nil && !bytes.Equal(viaOneShot, viaPrepared) {
			t.Fatal("one-shot and prepared opens recovered different plaintexts")
		}
	})
}
