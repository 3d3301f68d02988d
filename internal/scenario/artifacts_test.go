package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCollectSkipsEmptyTraceAndMergeNamesIncarnation covers the runner's
// post-run artifact handling without a fleet: an incarnation killed before
// its first drain leaves a zero-byte trace, which is not a trace to merge;
// and a trace that does not parse fails trace-consistency with a detail
// that names the incarnation's file.
func TestCollectSkipsEmptyTraceAndMergeNamesIncarnation(t *testing.T) {
	dir := t.TempDir()
	const good = `{"at":5,"node":3,"round":1,"kind":"round","peer":-1,"arg":0,"seq":1}` + "\n"
	for name, body := range map[string]string{
		traceName(3, 0): "",
		traceName(3, 1): good,
		traceName(4, 0): good + `{"at":9,"node":4,"rou`,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	nodes := []*NodeOutcome{{ID: 3, Restarts: 1}, {ID: 4}}
	for _, out := range nodes {
		collectArtifacts(dir, out)
	}
	if got := nodes[0].TracePaths; len(got) != 1 || filepath.Base(got[0]) != traceName(3, 1) {
		t.Fatalf("node 3 trace paths %v, want only the non-empty incarnation 1", got)
	}

	_, inv := mergeTraces(dir, nodes)
	if inv.OK || !strings.Contains(inv.Detail, traceName(4, 0)+":") {
		t.Fatalf("trace-consistency ok=%v detail %q, want a failure naming %s", inv.OK, inv.Detail, traceName(4, 0))
	}
	_, inv = mergeTraces(dir, nodes[:1])
	if !inv.OK || inv.Detail != "1 events across 1 traces" {
		t.Fatalf("trace-consistency ok=%v detail %q, want 1 event across 1 trace", inv.OK, inv.Detail)
	}
}
