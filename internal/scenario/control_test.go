package scenario

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// releasedControl runs a one-node barrier's handshake for a node
// announcing self, releasing the barrier unless a previous incarnation
// did, and returns the node's released control connection.
func releasedControl(t *testing.T, b *Barrier, self Entry, profileDir string) *Control {
	t.Helper()
	c, err := DialControl(b.Addr(), self, profileDir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	b.mu.Lock()
	released := b.released
	b.mu.Unlock()
	if !released {
		if err := b.AwaitReady(5 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := b.Release(time.Now()); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := c.AwaitStart(1); err != nil {
		t.Fatal(err)
	}
	return c
}

// awaitFile polls path until it holds exactly want, failing with what it
// holds after a deadline.
func awaitFile(t *testing.T, path string, want []byte) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, err := os.ReadFile(path)
		if err == nil && bytes.Equal(got, want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s holds %q (err %v), want %q", filepath.Base(path), got, err, want)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExporterChunkedDrainMatchesExport drains one tracer through a
// node's exporter in three chunks over the control connection and
// requires the trace file the barrier writes byte-identical to a single
// ExportJSONL of the same events: shipping per drain changes when bytes
// reach the file, not which bytes. The file must also parse strictly
// after every chunk — that is what a SIGKILLed node leaves behind — and
// the tracer must hold nothing the exporter already shipped. A relaunched
// incarnation then starts its own sequence at 1 on its own connection and
// file, which is no gap.
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
	lines := bytes.SplitAfter(want.Bytes(), []byte("\n"))

	dir := t.TempDir()
	b, err := NewBarrier(1, dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	self := testEntry(t, 0, "127.0.0.1:9000", 1)
	c := releasedControl(t, b, self, "")
	tr := telemetry.New(telemetry.Options{})
	e := &exporter{trace: tr, metrics: telemetry.NewMetrics(), ctrl: c, last: map[string]float64{}}
	path := filepath.Join(dir, traceName(0, 0))
	for _, chunk := range [][2]int{{0, 4}, {4, 19}, {19, 30}} {
		record(tr, chunk[0], chunk[1])
		e.drain()
		prefix := bytes.Join(lines[:2*chunk[1]], nil)
		awaitFile(t, path, prefix)
		events, perr := telemetry.ReadJSONL(bytes.NewReader(prefix))
		if perr != nil || len(events) != 2*chunk[1] {
			t.Fatalf("file not strictly parseable after the drain to %d: %d events, %v", chunk[1], len(events), perr)
		}
		if kept := len(tr.Events()); kept != 0 {
			t.Fatalf("after the drain to %d: %d events still retained, want 0", chunk[1], kept)
		}
	}
	e.drain() // nothing new: must write nothing
	c.Finish(&NodeResult{ID: 0, Mode: "erb"}, nil)
	awaitEvent(t, b, 0, "done")
	awaitFile(t, path, want.Bytes())
	if doc, err := readResult(filepath.Join(dir, resultName(0, 0))); err != nil || doc.Mode != "erb" {
		t.Fatalf("result-0-0.json: %+v, %v", doc, err)
	}
	if tr.Hash() != whole.Hash() {
		t.Fatalf("hash %#x vs %#x", tr.Hash(), whole.Hash())
	}

	// The relaunch: the same enclave on a new connection, sequence from 1.
	c2 := releasedControl(t, b, self, "")
	tr2 := telemetry.New(telemetry.Options{})
	record(tr2, 0, 1)
	(&exporter{trace: tr2, metrics: telemetry.NewMetrics(), ctrl: c2, last: map[string]float64{}}).drain()
	c2.Finish(&NodeResult{ID: 0}, nil)
	awaitEvent(t, b, 0, "done")
	awaitFile(t, filepath.Join(dir, traceName(0, 1)), bytes.Join(lines[:2], nil))
	if gaps, _ := b.agg.totals(); gaps != 0 {
		t.Fatalf("%d gaps across two incarnations' streams, want 0", gaps)
	}
}

// TestSendProfReachesNode is pprof-on-violation end to end: the runner's
// PROF request reaches the node over its control connection, and the node
// writes a CPU and a heap profile into its profile directory.
func TestSendProfReachesNode(t *testing.T) {
	b, err := NewBarrier(1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	profDir := t.TempDir()
	releasedControl(t, b, testEntry(t, 0, "127.0.0.1:9000", 1), profDir)
	b.SendProf(0)
	heap := filepath.Join(profDir, "heap-0.pprof") // written after the CPU window
	deadline := time.Now().Add(cpuProfileWindow + 10*time.Second)
	for {
		if st, err := os.Stat(heap); err == nil && st.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no heap profile after a PROF request")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if st, err := os.Stat(filepath.Join(profDir, "cpu-0.pprof")); err != nil || st.Size() == 0 {
		t.Fatalf("cpu-0.pprof: %v, %v", st, err)
	}
}
