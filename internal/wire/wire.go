// Package wire defines the protocol messages exchanged by the P2P
// primitives and their deterministic binary encoding.
//
// The core transmitted value follows the paper's Section 4 format
//
//	val := <type, id, seq, m, rnd>
//
// where type is INIT, ECHO or ACK for the ERB protocol, with CHOSEN and
// FINAL added by the optimized ERNG (Algorithm 6) and a handful of extra
// types used by the byzantine-model baseline protocols of Appendix B.
//
// The encoding is compact little-endian binary. An ERB INIT carrying a
// 32-byte random value encodes to well under 100 bytes before sealing,
// matching the ~100 B INIT / ~80 B ACK sizes the paper reports in its
// evaluation, so traffic-volume experiments reproduce Figure 3 faithfully.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// NodeID identifies a peer in the network. IDs are dense indices in
// [0, N) assigned at setup, as in the paper's model where every peer knows
// the full membership (assumption S1/S5).
type NodeID uint32

// NoNode is a sentinel for "no peer".
const NoNode = NodeID(^uint32(0))

// ValueSize is the size in bytes of a protocol value m (a k-bit random
// number with k = 256, or a message digest for ACKs).
const ValueSize = 32

// Value is a protocol value: the broadcast payload m of ERB, a random
// contribution in ERNG, or a digest H(val) inside an ACK.
type Value [ValueSize]byte

// IsZero reports whether the value is all zeroes. The protocols use the
// zero value together with a presence flag, never as in-band data.
func (v Value) IsZero() bool {
	return v == Value{}
}

// XOR returns the bitwise exclusive-or of two values, the combination
// operation of the ERNG protocols (Section 5).
func (v Value) XOR(o Value) Value {
	var out Value
	for i := range v {
		out[i] = v[i] ^ o[i]
	}
	return out
}

// String implements fmt.Stringer with a short hex prefix.
func (v Value) String() string {
	return fmt.Sprintf("%x", v[:4])
}

// Type enumerates protocol message types.
type Type uint8

// Message types. The first group is ERB/ERNG (SGX protocols); the second
// group belongs to the byzantine-model baseline protocols of Appendix B.
const (
	// TypeInit starts an ERB broadcast (initiator's message).
	TypeInit Type = iota + 1
	// TypeEcho relays a received broadcast value.
	TypeEcho
	// TypeAck acknowledges receipt of a valid INIT or ECHO (property P4).
	TypeAck
	// TypeChosen announces cluster membership in optimized ERNG.
	TypeChosen
	// TypeFinal disseminates a cluster's accepted set in optimized ERNG.
	TypeFinal
	// TypeStrawInit is the strawman protocol's INIT (Algorithm 1).
	TypeStrawInit
	// TypeStrawEcho is the strawman protocol's ECHO (Algorithm 1).
	TypeStrawEcho
	// TypeSigRelay is a signature-chain relay of the RBsig baseline
	// (Algorithm 4): a value plus the chain of signatures it accumulated.
	TypeSigRelay
	// TypeEarlyValue is the per-round value/liveness broadcast of the
	// RBearly baseline (Algorithm 5).
	TypeEarlyValue
)

var typeNames = map[Type]string{
	TypeInit:       "INIT",
	TypeEcho:       "ECHO",
	TypeAck:        "ACK",
	TypeChosen:     "CHOSEN",
	TypeFinal:      "FINAL",
	TypeStrawInit:  "STRAW-INIT",
	TypeStrawEcho:  "STRAW-ECHO",
	TypeSigRelay:   "SIG-RELAY",
	TypeEarlyValue: "EARLY-VALUE",
}

// String implements fmt.Stringer.
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("Type(%d)", uint8(t))
}

// Valid reports whether t is a known message type. The types are a
// contiguous iota block, so this is a range check — Decode calls it per
// message, and the typeNames map lookup it replaced was measurable in
// delivery-heavy simulations.
func (t Type) Valid() bool {
	return t >= TypeInit && t <= TypeEarlyValue
}

// SigEntry is one link of an RBsig signature chain: the signer and its
// signature over the value and the chain so far.
type SigEntry struct {
	Signer    NodeID
	Signature []byte
}

// SetEntry is one element of a FINAL message's accepted set: the initiator
// of an ERB instance and the value accepted for it.
type SetEntry struct {
	Initiator NodeID
	Value     Value
}

// Message is the transmitted value val = <type, id, seq, m, rnd> plus the
// fields the concrete protocols need: the sender (authenticated by the
// channel, carried for baseline protocols that run without one), an
// instance number distinguishing concurrent/successive protocol instances,
// an optional presence flag for m, and optional set/signature sections.
type Message struct {
	// Type is the message type.
	Type Type
	// Sender is the peer that produced this message.
	Sender NodeID
	// Initiator is the id in val: the initiator of the broadcast this
	// message belongs to.
	Initiator NodeID
	// Instance distinguishes protocol instances (e.g. successive beacon
	// epochs). Within one instance, Seq provides per-sender freshness.
	Instance uint32
	// Seq is the sequence number of the initiator for this instance
	// (property P6).
	Seq uint64
	// Round is the protocol round rnd stamped by the sender's enclave
	// (property P5).
	Round uint32
	// HasValue indicates whether Value carries a payload. ERB uses it to
	// distinguish "no message yet" from a genuine all-zero value.
	HasValue bool
	// Value is m (or H(val) in an ACK).
	Value Value
	// Set is the accepted set carried by FINAL messages.
	Set []SetEntry
	// Sigs is the signature chain carried by SIG-RELAY messages.
	Sigs []SigEntry
}

// Encoding limits. Sets are bounded by the cluster size and signature
// chains by the round number; both fit comfortably in 16 bits.
const (
	maxSetEntries = 1 << 16
	maxSigEntries = 1 << 16
	maxSigLen     = 1 << 8
)

// Errors returned by Decode.
var (
	ErrTruncated   = errors.New("wire: truncated message")
	ErrBadType     = errors.New("wire: unknown message type")
	ErrBadFlags    = errors.New("wire: reserved flag bits set")
	ErrTooManySets = errors.New("wire: set section too large")
	ErrTooManySigs = errors.New("wire: signature section too large")
	ErrTrailing    = errors.New("wire: trailing bytes after message")
)

// headerSize is the fixed portion: type(1) sender(4) initiator(4)
// instance(4) seq(8) round(4) flags(1) value(32) setLen(2) sigLen(2).
const headerSize = 1 + 4 + 4 + 4 + 8 + 4 + 1 + ValueSize + 2 + 2

// EncodedSize returns the exact encoded length of the message.
func (m *Message) EncodedSize() int {
	n := headerSize
	n += len(m.Set) * (4 + ValueSize)
	for _, s := range m.Sigs {
		n += 4 + 1 + len(s.Signature)
	}
	return n
}

// Encode serializes the message. It never fails for messages within the
// section limits; oversized sections are reported as errors.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(nil)
}

// AppendEncode serializes the message appending to buf and returns the
// extended slice, byte-identical to Encode. The multicast hot path
// encodes into a reused per-peer scratch buffer, so steady-state sends
// pay no encode allocation. buf is pre-grown to the exact encoded size
// when its capacity is short.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	if len(m.Set) >= maxSetEntries {
		return nil, ErrTooManySets
	}
	if len(m.Sigs) >= maxSigEntries {
		return nil, ErrTooManySigs
	}
	if need := m.EncodedSize(); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = append(buf, byte(m.Type))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Sender))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(m.Initiator))
	buf = binary.LittleEndian.AppendUint32(buf, m.Instance)
	buf = binary.LittleEndian.AppendUint64(buf, m.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, m.Round)
	var flags byte
	if m.HasValue {
		flags |= 1
	}
	buf = append(buf, flags)
	buf = append(buf, m.Value[:]...)
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Set)))
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(m.Sigs)))
	for _, e := range m.Set {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(e.Initiator))
		buf = append(buf, e.Value[:]...)
	}
	for _, s := range m.Sigs {
		if len(s.Signature) >= maxSigLen {
			return nil, ErrTooManySigs
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(s.Signer))
		buf = append(buf, byte(len(s.Signature)))
		buf = append(buf, s.Signature...)
	}
	return buf, nil
}

// Decode parses a message produced by Encode. It rejects unknown types,
// truncated input and trailing bytes.
func Decode(data []byte) (*Message, error) {
	m := &Message{}
	if err := DecodeInto(m, data); err != nil {
		return nil, err
	}
	return m, nil
}

// DecodeInto parses a canonical encoding into an existing Message,
// overwriting every field. It exists for the runtime's receive path,
// which decodes each delivered message into one per-peer scratch Message
// instead of allocating one per delivery — the dominant allocation of a
// broadcast round before it was pooled. Set, Sigs and the signatures in
// Sigs are decoded into the capacity m already has, so a scratch that
// has seen a FINAL decodes the next one without allocating; whoever
// keeps a decoded message past the next DecodeInto into the same
// Message must copy them (Clone). A section absent from the encoding
// comes out with length zero — nil when m had none, as in Decode. On
// error m is left partially overwritten and must not be used.
func DecodeInto(m *Message, data []byte) error {
	if len(data) < headerSize {
		return ErrTruncated
	}
	m.Type = Type(data[0])
	if !m.Type.Valid() {
		return ErrBadType
	}
	off := 1
	m.Sender = NodeID(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	m.Initiator = NodeID(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	m.Instance = binary.LittleEndian.Uint32(data[off:])
	off += 4
	m.Seq = binary.LittleEndian.Uint64(data[off:])
	off += 8
	m.Round = binary.LittleEndian.Uint32(data[off:])
	off += 4
	// Reserved flag bits must be zero, or the encoding would not be
	// canonical: two distinct byte strings would decode to one message
	// (found by FuzzDecode, corpus testdata/fuzz/FuzzDecode).
	if data[off]&^1 != 0 {
		return ErrBadFlags
	}
	m.HasValue = data[off]&1 != 0
	off++
	copy(m.Value[:], data[off:off+ValueSize])
	off += ValueSize
	setLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	sigLen := int(binary.LittleEndian.Uint16(data[off:]))
	off += 2
	m.Set = m.Set[:0]
	if setLen > cap(m.Set) {
		m.Set = make([]SetEntry, 0, setLen)
	}
	for i := 0; i < setLen; i++ {
		if len(data)-off < 4+ValueSize {
			return ErrTruncated
		}
		var e SetEntry
		e.Initiator = NodeID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		copy(e.Value[:], data[off:off+ValueSize])
		off += ValueSize
		m.Set = append(m.Set, e)
	}
	// Entries past the old length keep their Signature buffers; reslicing
	// to the full capacity brings them back for reuse.
	sigs := m.Sigs[:cap(m.Sigs)]
	if sigLen > len(sigs) {
		sigs = append(sigs, make([]SigEntry, sigLen-len(sigs))...)
	}
	m.Sigs = sigs[:sigLen]
	for i := range m.Sigs {
		if len(data)-off < 5 {
			return ErrTruncated
		}
		s := &m.Sigs[i]
		s.Signer = NodeID(binary.LittleEndian.Uint32(data[off:]))
		off += 4
		n := int(data[off])
		off++
		if len(data)-off < n {
			return ErrTruncated
		}
		s.Signature = append(s.Signature[:0], data[off:off+n]...)
		off += n
	}
	if off != len(data) {
		return ErrTrailing
	}
	return nil
}

// instanceOffset is the byte offset of the Instance field in an encoded
// message: type(1) + sender(4) + initiator(4).
const instanceOffset = 1 + 4 + 4

// PeekInstance reads the instance id out of an encoded message without
// decoding it. The multiplexed runtime uses it to attribute telemetry for
// already-encoded frames (e.g. a multicast leg that degraded to an
// omission) without paying a full decode. ok is false when the bytes are
// too short to be a message.
func PeekInstance(encoded []byte) (instance uint32, ok bool) {
	if len(encoded) < headerSize {
		return 0, false
	}
	return binary.LittleEndian.Uint32(encoded[instanceOffset:]), true
}

// String implements fmt.Stringer for logs and test failures.
func (m *Message) String() string {
	return fmt.Sprintf("%s{sender=%d init=%d inst=%d seq=%d rnd=%d val=%s}",
		m.Type, m.Sender, m.Initiator, m.Instance, m.Seq, m.Round, m.Value)
}

// Clone returns a deep copy of the message. The simulated network clones
// messages at the trust boundary so a byzantine OS mutating its copy can
// never alias honest state.
func (m *Message) Clone() *Message {
	out := *m
	if m.Set != nil {
		out.Set = append([]SetEntry(nil), m.Set...)
	}
	if m.Sigs != nil {
		out.Sigs = make([]SigEntry, len(m.Sigs))
		for i, s := range m.Sigs {
			out.Sigs[i] = SigEntry{Signer: s.Signer, Signature: append([]byte(nil), s.Signature...)}
		}
	}
	return &out
}
