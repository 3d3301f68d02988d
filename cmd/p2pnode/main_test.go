package main

import (
	"strings"
	"testing"
)

// TestRunRequiresControl pins that a node only runs under the scenario
// runner: without -control it exits with a usage error before launching
// anything.
func TestRunRequiresControl(t *testing.T) {
	err := run([]string{"-id", "0", "-n", "4", "-t", "1"})
	if err == nil || !strings.Contains(err.Error(), "-control is required") {
		t.Fatalf("run without -control: %v, want the usage error", err)
	}
}
