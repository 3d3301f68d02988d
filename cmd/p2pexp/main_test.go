package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCheckGolden pins the -check verdicts: identical bytes pass, and a
// divergence names the first differing line with both versions.
func TestCheckGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "golden")
	if err := os.WriteFile(path, []byte("== tab ==\nN  msgs\n4  12\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := checkGolden(path, []byte("== tab ==\nN  msgs\n4  12\n")); err != nil {
		t.Fatalf("identical output rejected: %v", err)
	}
	err := checkGolden(path, []byte("== tab ==\nN  msgs\n4  13\n"))
	if err == nil {
		t.Fatal("diverging output accepted")
	}
	for _, want := range []string{"line 3", "4  12", "4  13"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("verdict missing %q: %v", want, err)
		}
	}
	if err := checkGolden(filepath.Join(t.TempDir(), "absent"), nil); err == nil {
		t.Fatal("missing golden file accepted")
	}
}
