package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// TestExporterChunkedDrainMatchesExport drains one tracer through the
// exporter in three chunks and requires the trace file byte-identical to a
// single ExportJSONL of the same events: appending per drain changes when
// bytes reach the file, not which bytes. The file must also parse strictly
// after every drain — that is what a SIGKILLed node leaves behind — and
// the tracer must hold nothing the exporter already shipped.
func TestExporterChunkedDrainMatchesExport(t *testing.T) {
	record := func(tr *telemetry.Tracer, from, to int) {
		for i := from; i < to; i++ {
			tr.Record(wire.NodeID(i%3), uint32(i/3+1), telemetry.KindRound, wire.NoNode, uint64(i), "")
			tr.RecordInst(wire.NodeID(i%3), uint32(i/3+1), uint32(i), telemetry.KindDeliver, 0, 7, "note \"quoted\"")
		}
	}
	whole := telemetry.New(telemetry.Options{})
	record(whole, 0, 30)
	var want bytes.Buffer
	if err := whole.ExportJSONL(&want); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr := telemetry.New(telemetry.Options{})
	e := &exporter{trace: tr, file: f}
	for _, chunk := range [][2]int{{0, 4}, {4, 19}, {19, 30}} {
		record(tr, chunk[0], chunk[1])
		e.drain()
		got, rerr := os.ReadFile(path)
		if rerr != nil {
			t.Fatal(rerr)
		}
		events, perr := telemetry.ReadJSONL(bytes.NewReader(got))
		if perr != nil {
			t.Fatalf("file not strictly parseable after the drain to %d: %v", chunk[1], perr)
		}
		if len(events) != 2*chunk[1] || len(tr.Events()) != 0 {
			t.Fatalf("after the drain to %d: %d events on file (want %d), %d still retained (want 0)",
				chunk[1], len(events), 2*chunk[1], len(tr.Events()))
		}
	}
	e.drain() // nothing new: must write nothing
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("chunked drains diverge from one ExportJSONL:\n%s\nvs\n%s", got, want.Bytes())
	}
	if e.err != nil || e.failed != 0 || tr.Hash() != whole.Hash() {
		t.Fatalf("err=%v failed=%d hash %#x vs %#x", e.err, e.failed, tr.Hash(), whole.Hash())
	}
}
