package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"

	"sgxp2p/internal/wire"
)

// jsonEvent is the JSONL line layout. Field order is the struct order —
// encoding/json preserves it — so exports of equal event streams are
// byte-identical. Peer is -1 when the event has no counterparty. Inst is
// the instance attribution, omitted when zero, so single-instance traces
// keep their pre-multiplexing byte layout and old traces still parse.
type jsonEvent struct {
	At    int64  `json:"at"`
	Node  int64  `json:"node"`
	Round uint32 `json:"round"`
	Inst  uint32 `json:"inst,omitempty"`
	Kind  string `json:"kind"`
	Peer  int64  `json:"peer"`
	Arg   uint64 `json:"arg"`
	Span  uint64 `json:"span,omitempty"`
	Note  string `json:"note,omitempty"`
	Seq   uint64 `json:"seq,omitempty"`
}

// encodeEvent maps an Event to its JSONL form.
func encodeEvent(ev Event) jsonEvent {
	return jsonEvent{
		At:    int64(ev.At),
		Node:  nodeJSON(ev.Node),
		Round: ev.Round,
		Inst:  ev.Instance,
		Kind:  ev.Kind.String(),
		Peer:  nodeJSON(ev.Peer),
		Arg:   ev.Arg,
		Span:  ev.Span,
		Note:  ev.Note,
		Seq:   ev.Seq,
	}
}

// nodeJSON maps a NodeID to its JSONL form (-1 for wire.NoNode).
func nodeJSON(id wire.NodeID) int64 {
	if id == wire.NoNode {
		return -1
	}
	return int64(id)
}

// nodeFromJSON is the inverse of nodeJSON.
func nodeFromJSON(v int64) (wire.NodeID, error) {
	if v == -1 {
		return wire.NoNode, nil
	}
	if v < 0 || v >= int64(wire.NoNode) {
		return 0, fmt.Errorf("telemetry: node id %d out of range", v)
	}
	return wire.NodeID(v), nil
}

// WriteJSONL writes an event slice as one JSON object per line, in the
// exact byte layout ExportJSONL uses. It is the standalone form the
// scenario runner needs to re-serialize merged multi-process streams.
func WriteJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	for _, ev := range events {
		line, err := MarshalEvent(ev)
		if err != nil {
			return err
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportJSONL writes the full event stream as one JSON object per line.
// Two runs of the same deterministic seed export byte-identical files
// (the obs-smoke target and the chaos determinism tests pin this).
func (t *Tracer) ExportJSONL(w io.Writer) error {
	return WriteJSONL(w, t.Events())
}

// MergeEvents interleaves per-process event streams into one globally
// time-ordered stream. Each input must itself be time-ordered (the
// ValidateJSONL invariant every exported trace satisfies).
//
// Two guarantees matter to the live observability plane:
//
//   - Duplicates are dropped. An exporter that rewinds its cursor
//     re-sends a prefix, so the same tracer event can arrive more than
//     once. Events that carry a stream sequence number (Seq != 0) are
//     deduplicated on their full identity — an event equal in every
//     field, Seq included, is the same record; a legitimately repeated
//     action differs at least in Seq. Hand-built events (Seq == 0) are
//     never deduplicated.
//
//   - Ties are deterministic. Live processes share a logical timestamp
//     whenever their round windows align, so ordering by At alone would
//     let the input stream order leak into the merged bytes. Ties order
//     by Node, then Seq, then within-stream position — the same event
//     multiset merges to the same bytes regardless of which process's
//     stream arrived first.
func MergeEvents(streams ...[]Event) []Event {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	merged := make([]Event, 0, total)
	seen := make(map[Event]struct{}, total)
	for _, s := range streams {
		for _, ev := range s {
			if ev.Seq != 0 {
				if _, dup := seen[ev]; dup {
					continue
				}
				seen[ev] = struct{}{}
			}
			merged = append(merged, ev)
		}
	}
	sort.SliceStable(merged, func(i, j int) bool {
		a, b := merged[i], merged[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Node != b.Node {
			return a.Node < b.Node
		}
		return a.Seq < b.Seq
	})
	return merged
}

// decodeLine strictly parses one JSONL line into an Event.
func decodeLine(line []byte, lineNo int) (Event, error) {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	var je jsonEvent
	if err := dec.Decode(&je); err != nil {
		return Event{}, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
	}
	if dec.More() {
		return Event{}, fmt.Errorf("telemetry: line %d: trailing data after event object", lineNo)
	}
	kind, ok := ParseKind(je.Kind)
	if !ok {
		return Event{}, fmt.Errorf("telemetry: line %d: unknown event kind %q", lineNo, je.Kind)
	}
	node, err := nodeFromJSON(je.Node)
	if err != nil {
		return Event{}, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
	}
	peer, err := nodeFromJSON(je.Peer)
	if err != nil {
		return Event{}, fmt.Errorf("telemetry: line %d: %w", lineNo, err)
	}
	return Event{
		At:       time.Duration(je.At),
		Node:     node,
		Round:    je.Round,
		Kind:     kind,
		Peer:     peer,
		Arg:      je.Arg,
		Note:     je.Note,
		Instance: je.Inst,
		Span:     je.Span,
		Seq:      je.Seq,
	}, nil
}

// MarshalEvent renders one event as its JSONL line (no trailing newline)
// — the unit WriteJSONL writes and a live node's exporter appends to its
// trace file and frames onto the control connection.
func MarshalEvent(ev Event) ([]byte, error) {
	line, err := json.Marshal(encodeEvent(ev))
	if err != nil {
		return nil, fmt.Errorf("telemetry: marshal event: %w", err)
	}
	return line, nil
}

// DecodeEventLine strictly parses one JSONL line into an Event — the
// inverse of MarshalEvent, used by the scenario aggregator to ingest
// streamed lines one at a time.
func DecodeEventLine(line []byte) (Event, error) {
	return decodeLine(line, 1)
}

// lineScanner builds a Scanner with a buffer generous enough for any event.
func lineScanner(r io.Reader) *bufio.Scanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return sc
}

// ReadJSONL parses a JSONL trace back into events, validating each line.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := lineScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			return nil, fmt.Errorf("telemetry: line %d: empty line", lineNo)
		}
		ev, err := decodeLine(sc.Bytes(), lineNo)
		if err != nil {
			return nil, err
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return events, nil
}

// ValidateJSONL checks that r is a well-formed trace: every line parses
// strictly (no unknown fields, known kinds, node ids in range) and the
// timestamps are non-decreasing — the schema check of `p2ptrace -check`
// and the obs-smoke target.
func ValidateJSONL(r io.Reader) (int, error) {
	prev := time.Duration(0)
	first := true
	count := 0
	sc := lineScanner(r)
	for lineNo := 1; sc.Scan(); lineNo++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			return count, fmt.Errorf("telemetry: line %d: empty line", lineNo)
		}
		ev, err := decodeLine(sc.Bytes(), lineNo)
		if err != nil {
			return count, err
		}
		if !first && ev.At < prev {
			return count, fmt.Errorf("telemetry: line %d: timestamp %d regresses below %d", lineNo, ev.At, prev)
		}
		prev, first = ev.At, false
		count++
	}
	if err := sc.Err(); err != nil {
		return count, err
	}
	return count, nil
}

// DiffLines compares two JSONL traces line by line and returns the first
// 1-based line where they diverge, with both lines' contents (empty when a
// side already hit EOF). Line 0 means the traces are byte-identical — the
// determinism verdict `p2ptrace -diff` reports.
func DiffLines(a, b io.Reader) (line int, aLine, bLine string, err error) {
	sa, sb := lineScanner(a), lineScanner(b)
	for n := 1; ; n++ {
		moreA, moreB := sa.Scan(), sb.Scan()
		if err := sa.Err(); err != nil {
			return 0, "", "", err
		}
		if err := sb.Err(); err != nil {
			return 0, "", "", err
		}
		switch {
		case !moreA && !moreB:
			return 0, "", "", nil
		case moreA != moreB:
			return n, sa.Text(), sb.Text(), nil
		case sa.Text() != sb.Text():
			return n, sa.Text(), sb.Text(), nil
		}
	}
}

// formatEvent renders one event as a human-readable line (no trailing
// newline): logical time, node, kind, then the kind-specific fields.
func formatEvent(ev Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%11s ", ev.At)
	if ev.Node == wire.NoNode {
		b.WriteString("net    ")
	} else {
		fmt.Fprintf(&b, "n%-5d ", ev.Node)
	}
	fmt.Fprintf(&b, "%-12s", ev.Kind)
	if ev.Instance != 0 {
		fmt.Fprintf(&b, " inst=%d", ev.Instance)
	}
	if ev.Peer != wire.NoNode {
		fmt.Fprintf(&b, " peer=%d", ev.Peer)
	}
	if ev.Arg != 0 {
		fmt.Fprintf(&b, " arg=%#x", ev.Arg)
	}
	if ev.Span != 0 {
		fmt.Fprintf(&b, " span=%#x", ev.Span)
	}
	if ev.Note != "" {
		fmt.Fprintf(&b, " (%s)", ev.Note)
	}
	return b.String()
}

// WriteTimeline renders events as a per-round timeline: a header whenever
// the round changes, one formatted line per event.
func WriteTimeline(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	cur := int64(-1)
	for _, ev := range events {
		if int64(ev.Round) != cur {
			cur = int64(ev.Round)
			if _, err := fmt.Fprintf(bw, "── round %d ──\n", cur); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, "  %s\n", formatEvent(ev)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ExportTimeline writes the tracer's full stream as a per-round timeline.
func (t *Tracer) ExportTimeline(w io.Writer) error {
	return WriteTimeline(w, t.Events())
}

// FlightString renders the tail of a node's timeline (at most max lines,
// newest events kept) for embedding in error messages. Empty when the
// tracer is nil or the node recorded nothing.
func (t *Tracer) FlightString(node wire.NodeID, max int) string {
	return tailString(t.Flight(node), max)
}

// FlightInstanceString renders one protocol instance's whole timeline on
// a node — the attribution dump a multiplexed chaos violation embeds so
// the evidence names only the offending instance's events, not its
// thousand neighbors. It is bounded by one instance's events, so there is
// no line cap.
func (t *Tracer) FlightInstanceString(node wire.NodeID, instance uint32) string {
	return tailString(FilterInstance(t.Flight(node), instance), 0)
}

// tailString renders the last max events (all of them when max <= 0),
// one line each.
func tailString(events []Event, max int) string {
	if max > 0 && len(events) > max {
		events = events[len(events)-max:]
	}
	lines := make([]string, len(events))
	for i, ev := range events {
		lines[i] = "  r" + strconv.FormatUint(uint64(ev.Round), 10) + " " + formatEvent(ev)
	}
	return strings.Join(lines, "\n")
}

// DumpFlight writes a node's timeline to w.
func (t *Tracer) DumpFlight(w io.Writer, node wire.NodeID) error {
	if t == nil {
		return errors.New("telemetry: nil tracer")
	}
	_, err := fmt.Fprintf(w, "flight recorder, node %d (last round %d):\n%s\n",
		node, t.LastRound(node), t.FlightString(node, 0))
	return err
}

// ExportPrometheus writes the registry in the Prometheus text exposition
// format, metrics sorted by name so the snapshot is deterministic.
func (m *Metrics) ExportPrometheus(w io.Writer) error {
	if m == nil {
		return errors.New("telemetry: nil metrics registry")
	}
	m.mu.Lock()
	entries := make([]*metricEntry, len(m.entries))
	copy(entries, m.entries)
	m.mu.Unlock()
	sort.Slice(entries, func(i, j int) bool { return entries[i].name < entries[j].name })

	bw := bufio.NewWriter(w)
	for _, e := range entries {
		var err error
		switch {
		case e.c != nil:
			_, err = fmt.Fprintf(bw, "# TYPE %s counter\n%s %d\n", e.name, e.name, e.c.Value())
		case e.g != nil:
			_, err = fmt.Fprintf(bw, "# TYPE %s gauge\n%s %d\n", e.name, e.name, e.g.Value())
		case e.h != nil:
			err = writeHistogram(bw, e.name, e.h)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// writeHistogram renders one histogram with cumulative le buckets.
func writeHistogram(w io.Writer, name string, h *Histogram) error {
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, bound := range h.Bounds() {
		cum += h.BucketCount(i)
		le := strconv.FormatFloat(bound, 'g', -1, 64)
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	cum += h.BucketCount(len(h.Bounds()))
	sum := strconv.FormatFloat(h.Sum(), 'g', -1, 64)
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %s\n%s_count %d\n",
		name, cum, name, sum, name, h.Count())
	return err
}
