package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func sampleMessage() *Message {
	return &Message{
		Type:      TypeInit,
		Sender:    3,
		Initiator: 3,
		Instance:  7,
		Seq:       42,
		Round:     1,
		HasValue:  true,
		Value:     Value{1, 2, 3, 4},
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		msg  *Message
	}{
		{name: "init", msg: sampleMessage()},
		{
			name: "ack with digest",
			msg: &Message{
				Type: TypeAck, Sender: 9, Initiator: 3, Instance: 7,
				Seq: 42, Round: 1, HasValue: true, Value: Value{0xFF},
			},
		},
		{
			name: "echo without value",
			msg:  &Message{Type: TypeEcho, Sender: 1, Initiator: 2, Round: 5},
		},
		{
			name: "chosen",
			msg:  &Message{Type: TypeChosen, Sender: 4, Initiator: 4, Round: 1},
		},
		{
			name: "final with set",
			msg: &Message{
				Type: TypeFinal, Sender: 2, Initiator: 2, Round: 10,
				Set: []SetEntry{
					{Initiator: 1, Value: Value{0xA}},
					{Initiator: 5, Value: Value{0xB}},
				},
			},
		},
		{
			name: "sig relay",
			msg: &Message{
				Type: TypeSigRelay, Sender: 6, Initiator: 0, Round: 3,
				HasValue: true, Value: Value{9},
				Sigs: []SigEntry{
					{Signer: 0, Signature: bytes.Repeat([]byte{1}, 64)},
					{Signer: 6, Signature: bytes.Repeat([]byte{2}, 64)},
				},
			},
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			data, err := tt.msg.Encode()
			if err != nil {
				t.Fatalf("Encode: %v", err)
			}
			if len(data) != tt.msg.EncodedSize() {
				t.Fatalf("EncodedSize = %d, actual %d", tt.msg.EncodedSize(), len(data))
			}
			got, err := Decode(data)
			if err != nil {
				t.Fatalf("Decode: %v", err)
			}
			if !reflect.DeepEqual(got, tt.msg) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tt.msg)
			}
		})
	}
}

// TestDecodeIntoReusesSections pins the scratch contract of DecodeInto:
// one Message decodes a FINAL, a message with no sections, a signature
// chain and a longer FINAL in turn, every result re-encodes to its input,
// and once the scratch has seen the sizes the decodes allocate nothing.
func TestDecodeIntoReusesSections(t *testing.T) {
	final := func(n int) *Message {
		m := &Message{Type: TypeFinal, Sender: 2, Initiator: 2, Round: 10}
		for i := 0; i < n; i++ {
			m.Set = append(m.Set, SetEntry{Initiator: NodeID(i), Value: Value{byte(i + 1)}})
		}
		return m
	}
	msgs := []*Message{
		final(3),
		sampleMessage(),
		{Type: TypeSigRelay, Sender: 6, Round: 2, Sigs: []SigEntry{
			{Signer: 0, Signature: bytes.Repeat([]byte{1}, 64)},
			{Signer: 6, Signature: bytes.Repeat([]byte{2}, 48)},
		}},
		{Type: TypeSigRelay, Sender: 6, Round: 1, Sigs: []SigEntry{{Signer: 0, Signature: []byte{7}}}},
		final(5),
	}
	var encs [][]byte
	for _, m := range msgs {
		enc, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		encs = append(encs, enc)
	}
	var scratch Message
	pass := func() {
		for i, enc := range encs {
			if err := DecodeInto(&scratch, enc); err != nil {
				t.Fatalf("message %d: %v", i, err)
			}
			again, err := scratch.Encode()
			if err != nil || !bytes.Equal(again, enc) {
				t.Fatalf("message %d decoded to %+v (re-encode error %v)", i, &scratch, err)
			}
		}
	}
	pass()
	if allocs := testing.AllocsPerRun(10, func() {
		for _, enc := range encs {
			if err := DecodeInto(&scratch, enc); err != nil {
				t.Fatal(err)
			}
		}
	}); allocs != 0 {
		t.Fatalf("warm DecodeInto allocated %.0f times per pass, want 0", allocs)
	}
	pass()
}

func TestWireSizesMatchPaper(t *testing.T) {
	// The paper reports INIT around 100 bytes and ACK around 80 bytes.
	// Our plaintext encoding must stay in that ballpark so the traffic
	// figures (Fig. 3) reproduce. Sealing adds a 48-byte envelope.
	init := sampleMessage()
	data, err := init.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 40 || len(data) > 120 {
		t.Fatalf("INIT encodes to %d bytes, outside the paper's ballpark", len(data))
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	msg := &Message{
		Type: TypeFinal, Sender: 2, Initiator: 2,
		Set:  []SetEntry{{Initiator: 1, Value: Value{1}}},
		Sigs: []SigEntry{{Signer: 3, Signature: []byte{1, 2, 3}}},
	}
	data, err := msg.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(data); i++ {
		if _, err := Decode(data[:i]); err == nil {
			t.Fatalf("truncation at %d not detected", i)
		}
	}
}

func TestDecodeRejectsTrailing(t *testing.T) {
	data, err := sampleMessage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(append(data, 0)); err != ErrTrailing {
		t.Fatalf("got %v, want ErrTrailing", err)
	}
}

func TestDecodeRejectsBadType(t *testing.T) {
	data, err := sampleMessage().Encode()
	if err != nil {
		t.Fatal(err)
	}
	data[0] = 0xEE
	if _, err := Decode(data); err != ErrBadType {
		t.Fatalf("got %v, want ErrBadType", err)
	}
}

func TestTypeString(t *testing.T) {
	for _, tt := range []struct {
		typ  Type
		want string
	}{
		{TypeInit, "INIT"},
		{TypeEcho, "ECHO"},
		{TypeAck, "ACK"},
		{TypeChosen, "CHOSEN"},
		{TypeFinal, "FINAL"},
		{Type(0), "Type(0)"},
	} {
		if got := tt.typ.String(); got != tt.want {
			t.Errorf("Type(%d).String() = %q, want %q", tt.typ, got, tt.want)
		}
	}
	if Type(0).Valid() || Type(200).Valid() {
		t.Error("invalid types reported valid")
	}
}

func TestValueXOR(t *testing.T) {
	a := Value{0xFF, 0x0F}
	b := Value{0x0F, 0xFF}
	got := a.XOR(b)
	want := Value{0xF0, 0xF0}
	if got != want {
		t.Fatalf("XOR = %v, want %v", got, want)
	}
	if !a.XOR(a).IsZero() {
		t.Fatal("v XOR v must be zero")
	}
	var zero Value
	if a.XOR(zero) != a {
		t.Fatal("v XOR 0 must be v")
	}
}

func TestClone(t *testing.T) {
	msg := &Message{
		Type: TypeFinal, Sender: 1,
		Set:  []SetEntry{{Initiator: 2, Value: Value{1}}},
		Sigs: []SigEntry{{Signer: 3, Signature: []byte{4, 5}}},
	}
	c := msg.Clone()
	if !reflect.DeepEqual(c, msg) {
		t.Fatal("clone differs from original")
	}
	c.Set[0].Initiator = 99
	c.Sigs[0].Signature[0] = 99
	c.Value[0] = 99
	if msg.Set[0].Initiator == 99 || msg.Sigs[0].Signature[0] == 99 || msg.Value[0] == 99 {
		t.Fatal("clone aliases original storage")
	}
}

// quickMessage builds a structurally valid random message for property
// tests.
func quickMessage(rng *rand.Rand) *Message {
	types := []Type{TypeInit, TypeEcho, TypeAck, TypeChosen, TypeFinal, TypeStrawInit, TypeStrawEcho, TypeSigRelay, TypeEarlyValue}
	m := &Message{
		Type:      types[rng.Intn(len(types))],
		Sender:    NodeID(rng.Uint32()),
		Initiator: NodeID(rng.Uint32()),
		Instance:  rng.Uint32(),
		Seq:       rng.Uint64(),
		Round:     rng.Uint32(),
		HasValue:  rng.Intn(2) == 0,
	}
	rng.Read(m.Value[:])
	for i, n := 0, rng.Intn(4); i < n; i++ {
		var e SetEntry
		e.Initiator = NodeID(rng.Uint32())
		rng.Read(e.Value[:])
		m.Set = append(m.Set, e)
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		sig := make([]byte, 64)
		rng.Read(sig)
		m.Sigs = append(m.Sigs, SigEntry{Signer: NodeID(rng.Uint32()), Signature: sig})
	}
	return m
}

// Property: Decode(Encode(m)) == m for arbitrary well-formed messages.
func TestQuickRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := quickMessage(rng)
		data, err := m.Encode()
		if err != nil {
			return false
		}
		got, err := Decode(data)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: Decode never panics on arbitrary bytes; it either errors or
// returns a message that re-encodes to the same bytes.
func TestQuickDecodeRobust(t *testing.T) {
	f := func(data []byte) bool {
		m, err := Decode(data)
		if err != nil {
			return true
		}
		re, err := m.Encode()
		if err != nil {
			return false
		}
		return bytes.Equal(re, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: XOR over values is associative and commutative — the algebraic
// facts Theorem 5.1's unbiasedness proof relies on.
func TestQuickXORAlgebra(t *testing.T) {
	f := func(a, b, c Value) bool {
		if a.XOR(b) != b.XOR(a) {
			return false
		}
		return a.XOR(b).XOR(c) == a.XOR(b.XOR(c))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEncodeInit(b *testing.B) {
	m := sampleMessage()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeInit(b *testing.B) {
	data, err := sampleMessage().Encode()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}
