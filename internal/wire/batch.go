package wire

import (
	"encoding/binary"
	"errors"
	"slices"
)

// Batch container: all same-round messages one peer sends another are
// coalesced into a single sealed frame (DESIGN.md §11). The container
// is one magic byte followed by length-prefixed encoded messages:
//
//	0xFF [uint32 LE len][len bytes: one Encode output] ...
//
// 0xFF is not a valid message Type, so the first plaintext byte
// distinguishes a batch from a bare message and old frames can never be
// misparsed as batches (or vice versa). The decoder is canonical in the
// same sense as Decode's ErrBadFlags strictness: exactly one byte string
// encodes a given message sequence, and anything else — an empty batch,
// a truncated length prefix, a truncated or non-canonical entry,
// trailing bytes after the last entry — is rejected.
const BatchMagic = 0xFF

// BatchAckedMagic marks a batch container whose sender accepts a
// frame-cumulative acknowledgment: instead of one digest ACK per entry,
// the receiver may answer with a single ACK naming the sealed frame (by
// its envelope tag) that covers every message it carried. 0xFE is not a
// valid message Type either, so the dispatch stays a one-byte check.
// Senders set the marker at flush time (wire.MarkBatchAcked); everything
// else about the container — entry framing, canonicality, iteration —
// is identical to a BatchMagic container.
const BatchAckedMagic = 0xFE

// Errors returned by the batch decoder, alongside the Decode errors
// entries can fail with.
var (
	ErrNotBatch   = errors.New("wire: not a batch container")
	ErrEmptyBatch = errors.New("wire: empty batch container")
)

// IsBatch reports whether a plaintext frame is a batch container (as
// opposed to a single encoded message), with either magic byte.
func IsBatch(data []byte) bool {
	return len(data) > 0 && (data[0] == BatchMagic || data[0] == BatchAckedMagic)
}

// IsAckedBatch reports whether a batch container invites a
// frame-cumulative acknowledgment (BatchAckedMagic).
func IsAckedBatch(data []byte) bool {
	return len(data) > 0 && data[0] == BatchAckedMagic
}

// MarkBatchAcked rewrites a container built by AppendBatchEntry to carry
// the frame-acknowledgment marker. The sender decides at flush time —
// after the container is fully built — whether it can credit the frame's
// acknowledgment as a unit, so the marker is a one-byte rewrite instead
// of an AppendBatchEntry parameter.
func MarkBatchAcked(buf []byte) {
	if len(buf) > 0 && buf[0] == BatchMagic {
		buf[0] = BatchAckedMagic
	}
}

// AppendBatchEntry appends one encoded message to a batch under
// construction and returns the extended buffer. An empty buf is started
// with the magic byte, so per-destination scratch buffers reset with
// buf[:0] rebuild the container header for free. buf must be empty or
// the result of previous AppendBatchEntry calls.
func AppendBatchEntry(buf, encoded []byte) []byte {
	if len(buf) == 0 {
		buf = append(buf, BatchMagic)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(encoded)))
	return append(buf, encoded...)
}

// BatchEntryHeader is the length prefix before each entry of a
// container.
const BatchEntryHeader = 4

// AppendEncodeEntry appends m to buf framed as one batch entry — its
// length prefix, then its encoding — and returns the extended buffer.
// Entries appended back to back after one magic byte make the container
// AppendBatchEntry would have built from the same encodings. buf grows
// like append, so a log of entries reaches its widest size in a few
// steps and stays there.
func (m *Message) AppendEncodeEntry(buf []byte) ([]byte, error) {
	at := len(buf)
	buf = slices.Grow(buf, BatchEntryHeader+m.EncodedSize())
	buf, err := m.AppendEncode(append(buf, 0, 0, 0, 0))
	if err != nil {
		return nil, err
	}
	binary.LittleEndian.PutUint32(buf[at:], uint32(len(buf)-at-BatchEntryHeader))
	return buf, nil
}

// BatchIter walks the raw entries of a batch container without decoding
// them. The receive hot path iterates raw entries so it can digest the
// exact transmitted bytes for ACKs before per-entry Decode.
type BatchIter struct {
	rest []byte
}

// IterBatch starts iterating a batch container. It rejects frames
// without the magic byte (ErrNotBatch) and the empty container
// (ErrEmptyBatch: a flush with nothing buffered must send nothing, so
// an empty batch on the wire is non-canonical by construction).
func IterBatch(data []byte) (BatchIter, error) {
	if !IsBatch(data) {
		return BatchIter{}, ErrNotBatch
	}
	if len(data) == 1 {
		return BatchIter{}, ErrEmptyBatch
	}
	return BatchIter{rest: data[1:]}, nil
}

// Next returns the next raw entry, or ok=false when the container is
// exhausted. A length prefix that is truncated or runs past the end of
// the container yields ErrTruncated.
func (it *BatchIter) Next() (entry []byte, ok bool, err error) {
	if len(it.rest) == 0 {
		return nil, false, nil
	}
	if len(it.rest) < BatchEntryHeader {
		return nil, false, ErrTruncated
	}
	n := int(binary.LittleEndian.Uint32(it.rest))
	if len(it.rest)-BatchEntryHeader < n {
		return nil, false, ErrTruncated
	}
	entry = it.rest[BatchEntryHeader : BatchEntryHeader+n]
	it.rest = it.rest[BatchEntryHeader+n:]
	return entry, true, nil
}

// DecodeBatch parses a batch container into its messages, enforcing
// canonicality end to end: container framing via IterBatch/Next, each
// entry via Decode (which already rejects trailing bytes inside an
// entry, so entries cannot overlap or pad).
func DecodeBatch(data []byte) ([]*Message, error) {
	it, err := IterBatch(data)
	if err != nil {
		return nil, err
	}
	var msgs []*Message
	for {
		raw, ok, nerr := it.Next()
		if nerr != nil {
			return nil, nerr
		}
		if !ok {
			return msgs, nil
		}
		m, derr := Decode(raw)
		if derr != nil {
			return nil, derr
		}
		msgs = append(msgs, m)
	}
}
