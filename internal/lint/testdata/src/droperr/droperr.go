// Package droperr is golden-test input: dropped results from the guarded
// enclave-boundary, wire and telemetry API shapes and discarded BeginSpan
// results, next to handled forms that stay legal.
package droperr

import (
	"errors"
	"io"
)

type link struct{}

func (link) Seal(b []byte) ([]byte, error)   { return b, nil }
func (link) Open(b []byte) ([]byte, error)   { return b, nil }
func (link) Send(b []byte) error             { return nil }
func (link) Multicast(b []byte) (int, error) { return 0, nil }

func Decode(b []byte) (string, error) { return "", errors.New("short") }
func Encode(s string) ([]byte, error) { return nil, nil }

// logf is not a guarded name: dropping its error is out of scope here.
func logf(s string) error { return nil }

func dropped(l link, b []byte) {
	l.Seal(b)      // want "error from Seal: result dropped"
	l.Send(b)      // want "error from Send: result dropped"
	l.Multicast(b) // want "error from Multicast: result dropped"
	logf("fine")
}

func blanked(l link, b []byte) ([]byte, string) {
	opened, _ := l.Open(b) // want "error from Open discarded into _"
	v, _ := Decode(b)      // want "error from Decode discarded into _"
	return opened, v
}

func unobservable(l link, b []byte) {
	go l.Seal(b)    // want "error from Seal: result unobservable in go statement"
	defer l.Open(b) // want "error from Open: result unobservable in deferred call"
}

func handled(l link, b []byte) ([]byte, error) {
	sealed, err := l.Seal(b)
	if err != nil {
		return nil, err
	}
	if _, err := Encode("x"); err != nil {
		return nil, err
	}
	return sealed, l.Send(sealed)
}

// suppressed documents a deliberate drop.
func suppressed(l link, b []byte) {
	_, _ = l.Open(b) //lint:allow droperr probe path measures throughput only, tamper result unused
}

// The telemetry export/dump API shapes.

type tracer struct{}

func (tracer) ExportJSONL(w io.Writer) error          { return nil }
func (tracer) ExportTimeline(w io.Writer) error       { return nil }
func (tracer) DumpFlight(w io.Writer, n uint32) error { return nil }
func (tracer) WriteTimeline(w io.Writer) error        { return nil }

type metrics struct{}

func (metrics) ExportPrometheus(w io.Writer) error { return nil }

func ValidateJSONL(r io.Reader) (int, error) { return 0, nil }

func DiffLines(a, b io.Reader) (int, string, string, error) { return 0, "", "", nil }

// render is not a guarded name: dropping its error is out of scope here.
func render(w io.Writer) error { return nil }

func droppedExports(t tracer, m metrics, w io.Writer) {
	t.ExportJSONL(w)      // want "error from ExportJSONL: result dropped"
	m.ExportPrometheus(w) // want "error from ExportPrometheus: result dropped"
	t.DumpFlight(w, 3)    // want "error from DumpFlight: result dropped"
	t.WriteTimeline(w)    // want "error from WriteTimeline: result dropped"
	render(w)
}

func blankedChecks(r io.Reader) int {
	n, _ := ValidateJSONL(r)         // want "error from ValidateJSONL discarded into _"
	line, _, _, _ := DiffLines(r, r) // want "error from DiffLines discarded into _"
	return n + line
}

func unobservableExports(t tracer, w io.Writer) {
	go t.ExportTimeline(w)   // want "error from ExportTimeline: result unobservable in go statement"
	defer t.DumpFlight(w, 0) // want "error from DumpFlight: result unobservable in deferred call"
}

func handledExports(t tracer, m metrics, w io.Writer, r io.Reader) error {
	if err := t.ExportJSONL(w); err != nil {
		return err
	}
	if _, err := ValidateJSONL(r); err != nil {
		return err
	}
	return m.ExportPrometheus(w)
}

// suppressedExport documents a deliberate drop.
func suppressedExport(t tracer, w io.Writer) {
	_ = t.ExportTimeline(w) //lint:allow droperr best-effort debug print on the failure path
}

// BeginSpan: the Span result must reach Finish whatever its type.

type span struct{}

func (span) Finish() {}

func (tracer) BeginSpan() span { return span{} }

func droppedSpans(t tracer) {
	t.BeginSpan()       // want "Span from BeginSpan: result dropped \\(the hop is never finished"
	_ = t.BeginSpan()   // want "Span from BeginSpan discarded into _"
	go t.BeginSpan()    // want "Span from BeginSpan: result unobservable in go statement"
	defer t.BeginSpan() // want "Span from BeginSpan: result unobservable in deferred call"
}

func finishedSpan(t tracer) {
	s := t.BeginSpan()
	s.Finish()
}

func suppressedSpan(t tracer) {
	t.BeginSpan() //lint:allow droperr probing whether spans are enabled, hop intentionally unrecorded
}
