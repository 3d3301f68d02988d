package main

import (
	"strings"
	"testing"
)

// TestRunRejectsBadInvocations covers the argument errors that must fail
// before any fleet is spawned: -node-bin /bin/true means a run that got
// past them would fail differently (or, before the -testcase check
// existed, pass vacuously having run nothing).
func TestRunRejectsBadInvocations(t *testing.T) {
	for _, tc := range []struct {
		name    string
		args    []string
		wantErr string
	}{
		{
			name:    "no manifests",
			args:    []string{"-node-bin", "/bin/true"},
			wantErr: "no manifests given",
		},
		{
			name:    "unknown testcase",
			args:    []string{"-node-bin", "/bin/true", "-testcase", "nope", "../../scenarios/honest-sweep.toml"},
			wantErr: `no testcase named "nope" in the given manifests`,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := run(tc.args)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("run(%q) = %v, want an error containing %q", tc.args, err, tc.wantErr)
			}
		})
	}
}
