package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sgxp2p/internal/wire"
)

// TestKindStringRoundTrip pins every kind's wire name: ParseKind must
// invert String for all kinds, and unknown names must be rejected (the
// JSONL decoder depends on both directions).
func TestKindStringRoundTrip(t *testing.T) {
	for k := KindRound; k <= KindReattach; k++ {
		name := k.String()
		if name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, back, ok, k)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if got := Kind(0).String(); got != "unknown" {
		t.Fatalf("zero kind string = %q", got)
	}
}

// TestNilTracerNoOps asserts every Tracer method is a no-op on nil — the
// disabled-telemetry contract instrumented code relies on.
func TestNilTracerNoOps(t *testing.T) {
	var tr *Tracer
	tr.Record(0, 1, KindRound, wire.NoNode, 0, "")
	tr.SetClock(func() time.Duration { return 1 })
	if tr.Events() != nil || tr.EventCount() != 0 || tr.Hash() != 0 {
		t.Fatal("nil tracer leaked state")
	}
	if tr.LastRound(0) != 0 || tr.Flight(0) != nil || tr.FlightString(0, 4) != "" {
		t.Fatal("nil tracer flight state not empty")
	}
}

// TestTracerRecordAndHash checks the stream, the per-node round
// high-water mark, and that the incremental hash matches event order.
func TestTracerRecordAndHash(t *testing.T) {
	tr := New(Options{})
	tr.Record(0, 1, KindRound, wire.NoNode, 0, "")
	tr.Record(1, 1, KindDeliver, 0, 42, "")
	tr.Record(0, 2, KindRound, wire.NoNode, 0, "")
	tr.Record(wire.NoNode, 2, KindPartition, wire.NoNode, 2, "0 1|2")

	if got := tr.EventCount(); got != 4 {
		t.Fatalf("EventCount = %d, want 4", got)
	}
	if tr.LastRound(0) != 2 || tr.LastRound(1) != 0 {
		t.Fatalf("LastRound = %d/%d, want 2/0", tr.LastRound(0), tr.LastRound(1))
	}
	// Network-wide events belong to no node's timeline.
	if tr.Flight(wire.NoNode) != nil {
		t.Fatal("NoNode has a timeline")
	}

	// An identical re-recording produces the identical hash; a different
	// order diverges.
	tr2 := New(Options{})
	for _, ev := range tr.Events() {
		tr2.Record(ev.Node, ev.Round, ev.Kind, ev.Peer, ev.Arg, ev.Note)
	}
	if tr.Hash() != tr2.Hash() {
		t.Fatal("equal streams hash differently")
	}
	tr3 := New(Options{})
	evs := tr.Events()
	for i := len(evs) - 1; i >= 0; i-- {
		ev := evs[i]
		tr3.Record(ev.Node, ev.Round, ev.Kind, ev.Peer, ev.Arg, ev.Note)
	}
	if tr.Hash() == tr3.Hash() {
		t.Fatal("reordered stream hashes equal")
	}
}

// TestReleaseBoundsRetention checks that a streaming consumer can drop
// shipped prefixes without perturbing the stream's accounting: Seq keeps
// counting, Since keeps returning exactly-once suffixes, EventCount and
// Hash span the full stream, and only Events() shrinks.
func TestReleaseBoundsRetention(t *testing.T) {
	var nilTr *Tracer
	nilTr.Release(5) // nil-safe no-op

	tr := New(Options{})
	for i := 0; i < 4; i++ {
		tr.Record(0, uint32(i+1), KindRound, wire.NoNode, 0, "")
	}
	full := New(Options{})
	for i := 0; i < 6; i++ {
		full.Record(0, uint32(i+1), KindRound, wire.NoNode, 0, "")
	}

	// Exporter shipped the first 3 events; release them.
	tr.Release(3)
	if got := len(tr.Events()); got != 1 {
		t.Fatalf("retained %d events after Release(3), want 1", got)
	}
	if got := tr.EventCount(); got != 4 {
		t.Fatalf("EventCount = %d after Release, want 4", got)
	}
	// Since keeps working against the global cursor.
	if rest := tr.Since(3); len(rest) != 1 || rest[0].Seq != 4 {
		t.Fatalf("Since(3) = %v, want one event with Seq 4", rest)
	}
	// A rewound cursor clamps to the release edge instead of panicking.
	if rest := tr.Since(0); len(rest) != 1 || rest[0].Seq != 4 {
		t.Fatalf("Since(0) after Release = %v, want the unreleased suffix", rest)
	}

	// New records keep numbering from the global position.
	tr.Record(0, 5, KindRound, wire.NoNode, 0, "")
	tr.Record(0, 6, KindRound, wire.NoNode, 0, "")
	if evs := tr.Since(4); len(evs) != 2 || evs[0].Seq != 5 || evs[1].Seq != 6 {
		t.Fatalf("Since(4) = %v, want Seq 5,6", evs)
	}
	if tr.EventCount() != 6 {
		t.Fatalf("EventCount = %d, want 6", tr.EventCount())
	}
	// Hash folds eagerly at record time, so releasing never changes it.
	if tr.Hash() != full.Hash() {
		t.Fatal("Release perturbed the stream hash")
	}

	// Release past the end clamps; releasing an already-released prefix
	// is a no-op.
	tr.Release(100)
	tr.Release(1)
	if len(tr.Events()) != 0 || tr.EventCount() != 6 {
		t.Fatalf("over-Release broke accounting: retained=%d count=%d", len(tr.Events()), tr.EventCount())
	}
	if tr.Since(6) != nil {
		t.Fatal("Since past the end should be nil")
	}
}

// TestFlightReadsRetainedStream checks that a node's timeline is read out
// of the one event stream: every event the node recorded, oldest first,
// however many there are, no other node's events — and that Release
// shrinks the view together with the stream.
func TestFlightReadsRetainedStream(t *testing.T) {
	tr := New(Options{})
	for i := 1; i <= 100; i++ {
		tr.Record(0, uint32(i), KindRound, wire.NoNode, uint64(i), "")
		tr.Record(1, uint32(i), KindDeliver, 0, 0, "")
	}
	got := tr.Flight(0)
	if len(got) != 100 {
		t.Fatalf("flight length = %d, want all 100 of node 0's events", len(got))
	}
	for i, ev := range got {
		if ev.Node != 0 || ev.Arg != uint64(i+1) {
			t.Fatalf("flight[%d] = %+v, want node 0's event %d (oldest first)", i, ev, i+1)
		}
	}
	if tr.LastRound(0) != 100 || tr.LastRound(1) != 0 {
		t.Fatalf("LastRound = %d/%d, want 100/0", tr.LastRound(0), tr.LastRound(1))
	}

	tr.Release(190) // keeps the last five events of each node
	got = tr.Flight(0)
	if len(got) != 5 || got[0].Arg != 96 {
		t.Fatalf("flight after Release = %+v, want node 0's events 96..100", got)
	}
	if tr.LastRound(0) != 100 {
		t.Fatalf("LastRound after Release = %d, want 100", tr.LastRound(0))
	}
}

// TestFlightString checks the trimming and formatting of the error-message
// rendering.
func TestFlightString(t *testing.T) {
	tr := New(Options{})
	for i := 1; i <= 6; i++ {
		tr.Record(2, uint32(i), KindRound, wire.NoNode, 0, "")
	}
	s := tr.FlightString(2, 3)
	lines := strings.Split(s, "\n")
	if len(lines) != 3 {
		t.Fatalf("FlightString kept %d lines, want 3:\n%s", len(lines), s)
	}
	if !strings.Contains(lines[0], "r4") || !strings.Contains(lines[2], "r6") {
		t.Fatalf("FlightString kept the wrong (non-newest) window:\n%s", s)
	}
	if tr.FlightString(7, 3) != "" {
		t.Fatal("FlightString for an unknown node not empty")
	}
}

// TestHistogramBucketing pins the le-inclusive bucket semantics on the
// edges: a value equal to a bound lands in that bound's bucket, one above
// the last bound lands in +Inf.
func TestHistogramBucketing(t *testing.T) {
	m := NewMetrics()
	h := m.Histogram("h", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 2, 4, 4.5, 100} {
		h.Observe(v)
	}
	want := []uint64{2, 2, 1, 2} // <=1: {0.5,1}; <=2: {1.5,2}; <=4: {4}; +Inf: {4.5,100}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("Count = %d, want 7", h.Count())
	}
	if got, want := h.Sum(), 0.5+1+1.5+2+4+4.5+100; got != want {
		t.Fatalf("Sum = %v, want %v", got, want)
	}
}

// TestHistogramBadBounds checks that non-strictly-increasing bounds panic
// at registration (a wiring bug, not a runtime condition).
func TestHistogramBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for non-increasing bounds")
		}
	}()
	NewMetrics().Histogram("bad", []float64{1, 1})
}

// TestMetricsRegistry checks idempotent registration, nil-registry nil
// handles, and the kind-mismatch panic.
func TestMetricsRegistry(t *testing.T) {
	m := NewMetrics()
	c := m.Counter("x")
	if m.Counter("x") != c {
		t.Fatal("re-registration returned a different handle")
	}
	c.Inc()
	c.Add(2)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
	g := m.Gauge("g")
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 {
		t.Fatalf("gauge = %d, want 3", g.Value())
	}

	var nilM *Metrics
	if nilM.Counter("x") != nil || nilM.Gauge("g") != nil || nilM.Histogram("h", []float64{1}) != nil {
		t.Fatal("nil registry handed out non-nil handles")
	}
	var nilC *Counter
	nilC.Inc()
	nilC.Add(7)
	var nilG *Gauge
	nilG.Set(1)
	var nilH *Histogram
	nilH.Observe(1)
	if nilC.Value() != 0 || nilG.Value() != 0 || nilH.Count() != 0 {
		t.Fatal("nil handles not no-ops")
	}

	defer func() {
		if recover() == nil {
			t.Fatal("no panic registering one name as two kinds")
		}
	}()
	m.Gauge("x")
}

// TestJSONLRoundTrip exports a stream and reads it back, checking equality
// and that two exports of the same stream are byte-identical.
func TestJSONLRoundTrip(t *testing.T) {
	tr := New(Options{})
	now := time.Duration(0)
	tr.SetClock(func() time.Duration { return now })
	tr.Record(0, 1, KindRound, wire.NoNode, 0, "")
	now = 5 * time.Millisecond
	tr.Record(1, 1, KindDeliver, 0, 7, "")
	tr.Record(wire.NoNode, 2, KindPartition, wire.NoNode, 2, "0|1 2")

	var a, b bytes.Buffer
	if err := tr.ExportJSONL(&a); err != nil {
		t.Fatal(err)
	}
	if err := tr.ExportJSONL(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two exports of one stream differ")
	}

	events, err := ReadJSONL(bytes.NewReader(a.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	orig := tr.Events()
	if len(events) != len(orig) {
		t.Fatalf("read %d events, want %d", len(events), len(orig))
	}
	for i := range events {
		if events[i] != orig[i] {
			t.Fatalf("event %d round-tripped to %+v, want %+v", i, events[i], orig[i])
		}
	}

	count, err := ValidateJSONL(bytes.NewReader(a.Bytes()))
	if err != nil || count != len(orig) {
		t.Fatalf("ValidateJSONL = %d, %v", count, err)
	}
}

// TestValidateJSONLRejects checks the strict-decode failure modes: unknown
// fields, unknown kinds, regressing timestamps, empty lines.
func TestValidateJSONLRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"at":0,"node":0,"round":1,"kind":"round","peer":-1,"arg":0,"bogus":1}` + "\n",
		"unknown kind":  `{"at":0,"node":0,"round":1,"kind":"nope","peer":-1,"arg":0}` + "\n",
		"bad node":      `{"at":0,"node":-7,"round":1,"kind":"round","peer":-1,"arg":0}` + "\n",
		"regression": `{"at":5,"node":0,"round":1,"kind":"round","peer":-1,"arg":0}` + "\n" +
			`{"at":4,"node":1,"round":1,"kind":"round","peer":-1,"arg":0}` + "\n",
		"empty line": "\n",
	}
	for name, in := range cases {
		if _, err := ValidateJSONL(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Negative timestamps are legal (pre-start events on the live network);
	// only regressions are rejected.
	ok := `{"at":-5,"node":0,"round":0,"kind":"round","peer":-1,"arg":0}` + "\n" +
		`{"at":0,"node":0,"round":1,"kind":"round","peer":-1,"arg":0}` + "\n"
	if _, err := ValidateJSONL(strings.NewReader(ok)); err != nil {
		t.Errorf("negative timestamps rejected: %v", err)
	}
}

// TestDiffLines checks the determinism verdict: identical, diverging, and
// length-mismatched trace pairs.
func TestDiffLines(t *testing.T) {
	a := "x\ny\nz\n"
	if line, _, _, err := DiffLines(strings.NewReader(a), strings.NewReader(a)); err != nil || line != 0 {
		t.Fatalf("identical traces: line=%d err=%v", line, err)
	}
	line, la, lb, err := DiffLines(strings.NewReader("x\ny\n"), strings.NewReader("x\nq\n"))
	if err != nil || line != 2 || la != "y" || lb != "q" {
		t.Fatalf("diverging traces: line=%d %q %q err=%v", line, la, lb, err)
	}
	if line, _, _, _ := DiffLines(strings.NewReader("x\n"), strings.NewReader("x\ny\n")); line != 2 {
		t.Fatalf("length mismatch: line=%d, want 2", line)
	}
}

// TestPrometheusExport pins the text exposition format, including the
// cumulative le buckets and the name-sorted order.
func TestPrometheusExport(t *testing.T) {
	m := NewMetrics()
	m.Counter("zz_total").Add(3)
	m.Gauge("aa_nodes").Set(-2)
	h := m.Histogram("mm_size", []float64{1, 2})
	h.Observe(0.5)
	h.Observe(2)
	h.Observe(9)

	var buf bytes.Buffer
	if err := m.ExportPrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	want := `# TYPE aa_nodes gauge
aa_nodes -2
# TYPE mm_size histogram
mm_size_bucket{le="1"} 1
mm_size_bucket{le="2"} 2
mm_size_bucket{le="+Inf"} 3
mm_size_sum 11.5
mm_size_count 3
# TYPE zz_total counter
zz_total 3
`
	if got := buf.String(); got != want {
		t.Fatalf("export mismatch:\n got: %q\nwant: %q", got, want)
	}
}

// TestTimeline checks the per-round grouping of the human rendering.
func TestTimeline(t *testing.T) {
	tr := New(Options{})
	tr.Record(0, 1, KindRound, wire.NoNode, 0, "")
	tr.Record(1, 1, KindDeliver, 0, 0, "")
	tr.Record(0, 2, KindRound, wire.NoNode, 0, "")
	var buf bytes.Buffer
	if err := tr.ExportTimeline(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "── round") != 2 {
		t.Fatalf("want 2 round headers:\n%s", out)
	}
	if !strings.Contains(out, "n0") || !strings.Contains(out, "deliver") {
		t.Fatalf("timeline missing event fields:\n%s", out)
	}
}

// TestDumpFlight checks the invariant-failure dump names the node and its
// last round.
func TestDumpFlight(t *testing.T) {
	tr := New(Options{})
	tr.Record(4, 1, KindRound, wire.NoNode, 0, "")
	tr.Record(4, 1, KindHalt, wire.NoNode, 0, "ack-threshold")
	var buf bytes.Buffer
	if err := tr.DumpFlight(&buf, 4); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"node 4", "last round 1", "halt", "ack-threshold"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}
