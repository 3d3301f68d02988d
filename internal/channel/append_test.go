package channel

import (
	"bytes"
	"errors"
	"testing"

	"sgxp2p/internal/wire"
)

// TestSealEncodedAppendByteIdentical pins that where the envelope lands
// does not change its bytes: for the same sealer state, sealing into a
// nil dst, into a reused warm buffer and after an existing prefix append
// the same envelope, and the prefix is left alone. The ModelSealer is
// stateful (a counter), so each destination style gets a fresh instance;
// the RealSealer draws a random nonce, so its byte-identity is pinned at
// the xcrypto layer with a seeded rng (TestLinkCipherSealByteIdentical).
func TestSealEncodedAppendByteIdentical(t *testing.T) {
	model := func() Sealer { return NewModelSealer() }
	fresh, _ := pairedLinks(t, model)
	warm, _ := pairedLinks(t, model)
	prefixed, _ := pairedLinks(t, model)
	prefix := []byte("prefix")
	var dst []byte
	for i := 0; i < 5; i++ {
		msg := testMsg(0)
		msg.Seq = uint64(i)
		enc, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		want := sealMsg(t, fresh, msg)
		if dst, err = warm.SealEncodedAppend(dst[:0], enc); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want, dst) {
			t.Fatalf("msg %d: warm-buffer envelope differs from the nil-dst one", i)
		}
		got, err := prefixed.SealEncodedAppend(prefix[:len(prefix):len(prefix)], enc)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("msg %d: envelope appended after a prefix differs", i)
		}
	}
}

// TestOpenEncodedAppendRoundTrip drives the append hot path for both
// sealers the way the runtime does: seal into a reused envelope buffer,
// open into a reused scratch, decode, and check message and plaintext.
func TestOpenEncodedAppendRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			var env, scratch []byte
			var got wire.Message
			for i := 0; i < 4; i++ {
				msg := testMsg(0)
				msg.Seq = uint64(i)
				enc, err := msg.Encode()
				if err != nil {
					t.Fatal(err)
				}
				if env, err = la.SealEncodedAppend(env[:0], enc); err != nil {
					t.Fatal(err)
				}
				if scratch, err = lb.OpenRawAppend(scratch[:0], env); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(scratch, enc) {
					t.Fatal("opened plaintext differs from the sealed encoding")
				}
				if err := wire.DecodeInto(&got, scratch); err != nil {
					t.Fatal(err)
				}
				if got.String() != msg.String() || got.Value != msg.Value {
					t.Fatalf("round trip mismatch: %v vs %v", &got, msg)
				}
			}
		})
	}
}

// TestSealEncodedRoundTrip proves a wire batch container is opaque
// plaintext to the channel: a coalesced frame goes through the same seal
// and open as a bare message and comes out entry for entry.
func TestSealEncodedRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			var batch []byte
			var encs [][]byte
			for i := 0; i < 3; i++ {
				msg := testMsg(0)
				msg.Seq = uint64(i)
				enc, err := msg.Encode()
				if err != nil {
					t.Fatal(err)
				}
				encs = append(encs, enc)
				batch = wire.AppendBatchEntry(batch, enc)
			}
			env, err := la.SealEncodedAppend(nil, batch)
			if err != nil {
				t.Fatal(err)
			}
			plain, err := lb.OpenRawAppend(nil, env)
			if err != nil {
				t.Fatal(err)
			}
			if !wire.IsBatch(plain) || !bytes.Equal(plain, batch) {
				t.Fatal("opened plaintext is not the sealed batch container")
			}
			it, err := wire.IterBatch(plain)
			if err != nil {
				t.Fatal(err)
			}
			for i, want := range encs {
				raw, ok, err := it.Next()
				if err != nil || !ok || !bytes.Equal(raw, want) {
					t.Fatalf("entry %d: ok=%v err=%v, bytes match=%v", i, ok, err, bytes.Equal(raw, want))
				}
			}
		})
	}
}

// TestOpenEncodedRejects pins the shape of a rejection for both sealers:
// whatever is wrong with the envelope — too short for a header and tag,
// empty, garbage — the error is ErrAuth, nothing is returned, and the
// destination buffer's contents are untouched.
func TestOpenEncodedRejects(t *testing.T) {
	for _, s := range sealers {
		la, lb := pairedLinks(t, s.mk)
		env := sealMsg(t, la, testMsg(0))
		dst := []byte("kept")
		for name, bad := range map[string][]byte{
			"truncated": env[:10],
			"tagless":   env[:len(env)-32],
			"empty":     {},
			"garbage":   bytes.Repeat([]byte{0xFF}, len(env)),
		} {
			out, err := lb.OpenRawAppend(dst, bad)
			if !errors.Is(err, ErrAuth) || out != nil {
				t.Errorf("%s/%s: got (%v, %v), want (nil, ErrAuth)", s.name, name, out, err)
			}
			if string(dst) != "kept" {
				t.Errorf("%s/%s: destination buffer modified by a rejected open", s.name, name)
			}
		}
	}
}
