package scenario

import (
	"bufio"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"time"

	"sgxp2p/internal/enclave"
	"sgxp2p/internal/wire"
	"sgxp2p/internal/xcrypto"
)

// Entry is one node's row of the barrier's directory: the address its
// peers dial, the attestation quote of its enclave, which names the node,
// and the enclave's initial sequence number. A node announces its own
// entry with READY; the released PEERS line carries every node's, and a
// node builds its roster and sequence table from that line alone.
type Entry struct {
	Addr  string
	Quote enclave.Quote
	Seq   uint64
}

// ID is the node the entry belongs to: the one its quote names.
func (e Entry) ID() int { return int(e.Quote.NodeID) }

// String renders the entry as the control lines carry it:
// "<id> <host:port> <quote hex> <seq>".
func (e Entry) String() string {
	return fmt.Sprintf("%d %s %x %d", e.ID(), e.Addr, encodeQuote(e.Quote), e.Seq)
}

// sameEnclave reports whether two entries announce the same enclave: an
// identical quote and initial sequence number.
func (e Entry) sameEnclave(o Entry) bool {
	return e.Seq == o.Seq && string(encodeQuote(e.Quote)) == string(encodeQuote(o.Quote))
}

// quoteSize is a quote's length on the control lines: the signed body
// (id, measurement, DH public key) and the signature.
const quoteSize = 4 + xcrypto.MeasurementSize + xcrypto.PublicKeySize + xcrypto.SignatureSize

// encodeQuote lays a quote out as its signed body followed by the
// signature.
func encodeQuote(q enclave.Quote) []byte {
	b := binary.LittleEndian.AppendUint32(make([]byte, 0, quoteSize), uint32(q.NodeID))
	b = append(b, q.Measurement[:]...)
	b = append(b, q.DHPublic[:]...)
	return append(b, q.Signature...)
}

// decodeQuote is encodeQuote's inverse for a quoteSize-byte b.
func decodeQuote(b []byte) enclave.Quote {
	q := enclave.Quote{NodeID: wire.NodeID(binary.LittleEndian.Uint32(b))}
	b = b[4:]
	b = b[copy(q.Measurement[:], b):]
	b = b[copy(q.DHPublic[:], b):]
	q.Signature = append([]byte(nil), b...)
	return q
}

// parseEntry reads one entry strictly: a decimal id in [0, n), a
// host:port, a quote of exactly quoteSize bytes in hex that names that
// id, and a decimal sequence number.
func parseEntry(s string, n int) (Entry, error) {
	f := strings.Split(s, " ")
	if len(f) != 4 {
		return Entry{}, fmt.Errorf("entry %q: want <id> <host:port> <quote> <seq>", s)
	}
	id, err := strconv.ParseUint(f[0], 10, 31)
	if err != nil || int(id) >= n {
		return Entry{}, fmt.Errorf("entry %q: id not in [0, %d)", s, n)
	}
	if _, _, aerr := net.SplitHostPort(f[1]); aerr != nil {
		return Entry{}, fmt.Errorf("entry %d: address: %w", id, aerr)
	}
	raw, err := hex.DecodeString(f[2])
	if err != nil || len(raw) != quoteSize {
		return Entry{}, fmt.Errorf("entry %d: quote is not %d bytes of hex", id, quoteSize)
	}
	seq, err := strconv.ParseUint(f[3], 10, 64)
	if err != nil {
		return Entry{}, fmt.Errorf("entry %d: sequence number %q", id, f[3])
	}
	e := Entry{Addr: f[1], Quote: decodeQuote(raw), Seq: seq}
	if e.ID() != int(id) {
		return Entry{}, fmt.Errorf("entry %d: quote names node %d", id, e.ID())
	}
	return e, nil
}

// WriteReady sends a node's READY line: its own entry.
func WriteReady(w io.Writer, e Entry) error {
	_, err := fmt.Fprintf(w, "READY %s\n", e)
	return err
}

// parseReady reads a READY line of a fleet of n.
func parseReady(line string, n int) (Entry, error) {
	rest, ok := strings.CutPrefix(line, "READY ")
	if !ok {
		return Entry{}, fmt.Errorf("control: expected READY, got %q", line)
	}
	return parseEntry(rest, n)
}

// formatPeers renders the PEERS line of a directory whose entry i is
// node i's.
func formatPeers(table []Entry) string {
	parts := make([]string, len(table))
	for i, e := range table {
		parts[i] = e.String()
	}
	return "PEERS " + strings.Join(parts, ",")
}

// parsePeers reads a PEERS line of a fleet of n: every id in [0, n)
// exactly once. Entry i of the result is node i's.
func parsePeers(line string, n int) ([]Entry, error) {
	rest, ok := strings.CutPrefix(line, "PEERS ")
	if !ok {
		return nil, fmt.Errorf("control: expected PEERS, got %q", line)
	}
	table := make([]Entry, n)
	for _, part := range strings.Split(rest, ",") {
		e, err := parseEntry(part, n)
		if err != nil {
			return nil, err
		}
		if table[e.ID()].Addr != "" {
			return nil, fmt.Errorf("PEERS: node %d listed twice", e.ID())
		}
		table[e.ID()] = e
	}
	if missing := missingIDs(table); missing != nil {
		return nil, fmt.Errorf("PEERS: directory incomplete, missing ids %v", missing)
	}
	return table, nil
}

// missingIDs lists the ids whose entry in table is still empty.
func missingIDs(table []Entry) []int {
	var missing []int
	for id, e := range table {
		if e.Addr == "" {
			missing = append(missing, id)
		}
	}
	return missing
}

// ReadRelease reads the runner's release from a node's control
// connection: the PEERS directory of a fleet of n and the shared START
// instant.
func ReadRelease(rd *bufio.Reader, n int) ([]Entry, time.Time, error) {
	peers, err := rd.ReadString('\n')
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("control: reading PEERS: %w", err)
	}
	table, err := parsePeers(strings.TrimSuffix(peers, "\n"), n)
	if err != nil {
		return nil, time.Time{}, err
	}
	start, err := rd.ReadString('\n')
	if err != nil {
		return nil, time.Time{}, fmt.Errorf("control: reading START: %w", err)
	}
	ms, ok := strings.CutPrefix(strings.TrimSuffix(start, "\n"), "START ")
	at, perr := strconv.ParseInt(ms, 10, 64)
	if !ok || perr != nil {
		return nil, time.Time{}, fmt.Errorf("control: bad START %q", start)
	}
	return table, time.UnixMilli(at), nil
}
