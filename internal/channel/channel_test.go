package channel

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

type fakeClock struct{ now time.Duration }

func (c *fakeClock) Now() time.Duration { return c.now }

var program = []byte("erb-v1")

func launch(tb testing.TB, id wire.NodeID, seed int64, prog []byte) *enclave.Enclave {
	tb.Helper()
	e, err := enclave.Launch(prog, id, rand.New(rand.NewSource(seed)), &fakeClock{})
	if err != nil {
		tb.Fatalf("Launch: %v", err)
	}
	return e
}

// mustLink is NewLink failing the test on error.
func mustLink(tb testing.TB, local *enclave.Enclave, remote wire.NodeID, remotePub [xcrypto.PublicKeySize]byte, sealer Sealer) *Link {
	tb.Helper()
	l, err := NewLink(local, remote, remotePub, sealer)
	if err != nil {
		tb.Fatal(err)
	}
	return l
}

// pairedLinks establishes the two directions of one enclave pair, each
// end over its own sealer instance (as two peers would).
func pairedLinks(tb testing.TB, sealer func() Sealer) (*Link, *Link) {
	tb.Helper()
	a, b := launch(tb, 0, 1, program), launch(tb, 1, 2, program)
	return mustLink(tb, a, 1, b.DHPublic(), sealer()), mustLink(tb, b, 0, a.DHPublic(), sealer())
}

func testMsg(sender wire.NodeID) *wire.Message {
	return &wire.Message{
		Type: wire.TypeInit, Sender: sender, Initiator: sender,
		Seq: 7, Round: 1, HasValue: true, Value: wire.Value{0xAA},
	}
}

// sealMsg encodes msg and seals it into a fresh envelope.
func sealMsg(tb testing.TB, l *Link, msg *wire.Message) []byte {
	tb.Helper()
	enc, err := msg.Encode()
	if err != nil {
		tb.Fatal(err)
	}
	env, err := l.SealEncodedAppend(nil, enc)
	if err != nil {
		tb.Fatal(err)
	}
	return env
}

// openMsg opens an envelope and decodes the plaintext, as the runtime's
// receive path does for a bare frame.
func openMsg(l *Link, env []byte) (*wire.Message, error) {
	plain, err := l.OpenRawAppend(nil, env)
	if err != nil {
		return nil, err
	}
	return wire.Decode(plain)
}

// sealers lists both Sealer implementations; every behavioural test runs
// against both to prove protocol-equivalence of the model.
var sealers = []struct {
	name string
	mk   func() Sealer
}{
	{name: "real", mk: func() Sealer { return RealSealer{} }},
	{name: "model", mk: func() Sealer { return NewModelSealer() }},
}

func TestSealOpenRoundTrip(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			msg := testMsg(0)
			env := sealMsg(t, la, msg)
			if want := s.mk().SealedSize(msg.EncodedSize()); len(env) != want {
				t.Fatalf("envelope size %d, want %d", len(env), want)
			}
			got, err := openMsg(lb, env)
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != msg.String() || got.Value != msg.Value {
				t.Fatalf("round trip mismatch: %v vs %v", got, msg)
			}
		})
	}
}

func TestEnvelopeSizesIdenticalAcrossSealers(t *testing.T) {
	// The traffic experiments rely on ModelSealer producing byte-identical
	// sizes to RealSealer.
	msg := testMsg(0)
	n := msg.EncodedSize()
	real, model := RealSealer{}.SealedSize(n), NewModelSealer().SealedSize(n)
	if real != model {
		t.Fatalf("sealed sizes differ: real=%d model=%d", real, model)
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			env := sealMsg(t, la, testMsg(0))
			for _, i := range []int{0, len(env) / 2, len(env) - 1} {
				bad := append([]byte(nil), env...)
				bad[i] ^= 0x40
				if _, err := openMsg(lb, bad); err == nil {
					t.Fatalf("corruption at byte %d accepted", i)
				}
			}
		})
	}
}

func TestOpenRejectsCrossPairEnvelope(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			a := launch(t, 0, 1, program)
			b := launch(t, 1, 2, program)
			c := launch(t, 2, 3, program)
			lab := mustLink(t, a, 1, b.DHPublic(), s.mk())
			// b's link towards c must reject an envelope a sealed for b.
			lbc := mustLink(t, b, 2, c.DHPublic(), s.mk())
			if _, err := openMsg(lbc, sealMsg(t, lab, testMsg(0))); err == nil {
				t.Fatal("cross-pair envelope accepted")
			}
		})
	}
}

func TestOpenRejectsWrongProgram(t *testing.T) {
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			honest := launch(t, 0, 1, program)
			evil := launch(t, 1, 2, []byte("erb-v1-BACKDOORED"))
			lEvil := mustLink(t, evil, 0, honest.DHPublic(), s.mk())
			lHonest := mustLink(t, honest, 1, evil.DHPublic(), s.mk())
			if _, err := openMsg(lHonest, sealMsg(t, lEvil, testMsg(1))); err == nil {
				t.Fatal("envelope from modified program accepted (violates P1)")
			}
		})
	}
}

func TestReplayedEnvelopeStillOpens(t *testing.T) {
	// The channel itself does not dedupe: replay defence (P6) lives in the
	// protocol's sequence/round checks. A byte-identical replay must open
	// to a byte-identical message, which the protocol then rejects by seq.
	for _, s := range sealers {
		t.Run(s.name, func(t *testing.T) {
			la, lb := pairedLinks(t, s.mk)
			env := sealMsg(t, la, testMsg(0))
			m1, err := openMsg(lb, env)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := openMsg(lb, append([]byte(nil), env...))
			if err != nil {
				t.Fatal(err)
			}
			if m1.Seq != m2.Seq || m1.Round != m2.Round {
				t.Fatal("replay should decode identically; protocol rejects it by seq")
			}
		})
	}
}

// TestLinksShareEnclaveNonceReader pins where real envelopes get their
// nonces: one batched reader per enclave, shared by all its links (not one
// per link — a peer of a 256-node roster has 255), none for model links.
// The nonces stay fresh randomness: consecutive envelopes of one link and
// of sibling links all carry different ones.
func TestLinksShareEnclaveNonceReader(t *testing.T) {
	a, b, c := launch(t, 0, 1, program), launch(t, 1, 2, program), launch(t, 2, 3, program)
	ab := mustLink(t, a, 1, b.DHPublic(), RealSealer{})
	ac := mustLink(t, a, 2, c.DHPublic(), RealSealer{})
	ba := mustLink(t, b, 0, a.DHPublic(), RealSealer{})
	if ab.nonces == nil || ab.nonces != ac.nonces {
		t.Fatal("links of one enclave do not share its nonce reader")
	}
	if ab.nonces == ba.nonces {
		t.Fatal("links of different enclaves share a nonce reader")
	}
	if l := mustLink(t, a, 1, b.DHPublic(), NewModelSealer()); l.nonces != nil {
		t.Fatal("model link holds a nonce reader")
	}
	seen := make(map[[xcrypto.NonceSize]byte]bool)
	// 100 envelopes cross the reader's 32-nonce batch several times.
	for i := 0; i < 100; i++ {
		for _, l := range []*Link{ab, ac} {
			env := sealMsg(t, l, testMsg(0))
			nonce := [xcrypto.NonceSize]byte(env[:xcrypto.NonceSize])
			if seen[nonce] {
				t.Fatalf("nonce %x drawn twice", nonce)
			}
			seen[nonce] = true
		}
	}
	if _, err := openMsg(ba, sealMsg(t, ab, testMsg(0))); err != nil {
		t.Fatalf("envelope sealed with a batched nonce does not open: %v", err)
	}
}

func TestNewLinkHaltedEnclave(t *testing.T) {
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	a.Halt()
	if _, err := NewLink(a, 1, b.DHPublic(), RealSealer{}); err == nil {
		t.Fatal("link from halted enclave established")
	}
}

func TestNewLinkNilSealer(t *testing.T) {
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	if _, err := NewLink(a, 1, b.DHPublic(), nil); err == nil {
		t.Fatal("nil sealer accepted")
	}
}

// foreignSealer satisfies Sealer but is neither of the two schemes
// NewLink prepares state for.
type foreignSealer struct{}

func (foreignSealer) SealedSize(n int) int { return n }

func TestNewLinkRejectsForeignSealer(t *testing.T) {
	a := launch(t, 0, 1, program)
	b := launch(t, 1, 2, program)
	if _, err := NewLink(a, 1, b.DHPublic(), foreignSealer{}); err == nil {
		t.Fatal("a sealer with no prepared link state was accepted")
	}
}

// TestLinkSurface pins the sealed-message surface so it cannot regrow:
// a Link has exactly one seal and one open method, and a Sealer never
// takes key material.
func TestLinkSurface(t *testing.T) {
	var got []string
	lt := reflect.TypeOf(&Link{})
	for i := 0; i < lt.NumMethod(); i++ {
		got = append(got, lt.Method(i).Name)
	}
	want := []string{"OpenRawAppend", "Remote", "SealEncodedAppend", "SetCounters"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("exported methods of *Link = %v, want %v", got, want)
	}
	keys := reflect.TypeOf(xcrypto.SessionKeys{})
	st := reflect.TypeOf((*Sealer)(nil)).Elem()
	for i := 0; i < st.NumMethod(); i++ {
		m := st.Method(i)
		for j := 0; j < m.Type.NumIn(); j++ {
			if m.Type.In(j) == keys {
				t.Errorf("Sealer.%s takes xcrypto.SessionKeys", m.Name)
			}
		}
	}
	for i := 0; i < lt.Elem().NumField(); i++ {
		if f := lt.Elem().Field(i); f.Type == keys {
			t.Errorf("Link.%s retains xcrypto.SessionKeys", f.Name)
		}
	}
}

// Property: for random messages and random single-byte corruptions, the two
// sealers agree on accept/reject (protocol equivalence of the model).
func TestQuickSealerEquivalence(t *testing.T) {
	laReal, lbReal := pairedLinks(t, sealers[0].mk)
	laModel, lbModel := pairedLinks(t, sealers[1].mk)
	f := func(val wire.Value, seq uint64, round uint32, corrupt bool, pos uint16) bool {
		msg := &wire.Message{
			Type: wire.TypeEcho, Sender: 0, Initiator: 0,
			Seq: seq, Round: round, HasValue: true, Value: val,
		}
		envR, envM := sealMsg(t, laReal, msg), sealMsg(t, laModel, msg)
		if len(envR) != len(envM) {
			return false
		}
		if corrupt {
			i := int(pos) % len(envR)
			envR[i] ^= 0x10
			envM[i] ^= 0x10
		}
		_, errR := openMsg(lbReal, envR)
		_, errM := openMsg(lbModel, envM)
		if errR != nil && !errors.Is(errR, ErrAuth) || errM != nil && !errors.Is(errM, ErrAuth) {
			return false
		}
		return (errR == nil) == (errM == nil)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkSealOpen measures one seal plus one open on an established
// link with reused buffers, per sealer: an encoded protocol message
// (msg), then the repository benchmark's p50 and p99 envelope sizes, with
// MB/s over the envelope bytes. 110 B is every workload's p50 (a
// singleton frame) and 2048 B erng_basic's p99; the real sealer also runs
// the p99 of the two real-crypto workloads that batch, beacon_opt (643 B)
// and erb_mux (1105 B, which is also its largest: mean 501 B).
func BenchmarkSealOpen(b *testing.B) {
	for _, s := range sealers {
		la, lb := pairedLinks(b, s.mk)
		run := func(name string, plain []byte) {
			b.Run(s.name+"/"+name, func(b *testing.B) {
				var env, scratch []byte
				var err error
				b.SetBytes(int64(s.mk().SealedSize(len(plain))))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if env, err = la.SealEncodedAppend(env[:0], plain); err != nil {
						b.Fatal(err)
					}
					if scratch, err = lb.OpenRawAppend(scratch[:0], env); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
		enc, err := testMsg(0).Encode()
		if err != nil {
			b.Fatal(err)
		}
		run("msg", enc)
		sizes := []int{110, 2048}
		if s.name == "real" {
			sizes = []int{110, 643, 1105, 2048}
		}
		for _, size := range sizes {
			run(fmt.Sprintf("%dB", size), make([]byte, size-s.mk().SealedSize(0)))
		}
	}
}
