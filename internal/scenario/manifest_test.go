package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// repoManifest loads one of the checked-in scenario manifests.
func repoManifest(t *testing.T, name string) *Manifest {
	t.Helper()
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(root, "scenarios", name))
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseManifest(string(data))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return m
}

// TestCheckedInManifestsParse pins that all four shipped manifests parse
// and resolve with their defaults.
func TestCheckedInManifestsParse(t *testing.T) {
	for _, name := range []string{
		"honest-sweep.toml", "byzantine-chain.toml", "crash-restart.toml", "slow-link.toml",
	} {
		m := repoManifest(t, name)
		for i := range m.Testcases {
			tc := &m.Testcases[i]
			rp, err := tc.ResolveParams(nil)
			if err != nil {
				t.Fatalf("%s/%s: resolve: %v", name, tc.Name, err)
			}
			if err := tc.Validate(tc.Instances.Default, rp); err != nil {
				t.Fatalf("%s/%s: validate: %v", name, tc.Name, err)
			}
			for _, n := range tc.Sweep {
				if err := tc.Validate(n, rp); err != nil {
					t.Fatalf("%s/%s: sweep n=%d: %v", name, tc.Name, n, err)
				}
			}
		}
	}
}

// TestResolveParamsDefaultsAndOverrides pins the merge order: built-in
// defaults, then manifest defaults, then CLI overrides.
func TestResolveParamsDefaultsAndOverrides(t *testing.T) {
	m := repoManifest(t, "honest-sweep.toml")
	tc, err := m.Case("erb-honest")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tc.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Mode != "erb" || rp.T != 1 || rp.Delta != 200*time.Millisecond || rp.Epochs != 2 {
		t.Fatalf("defaults = %+v", rp)
	}
	rp, err = tc.ResolveParams(map[string]string{"epochs": "5", "delta": "90ms", "mode": "erng"})
	if err != nil {
		t.Fatal(err)
	}
	if rp.Epochs != 5 || rp.Delta != 90*time.Millisecond || rp.Mode != "erng" {
		t.Fatalf("overrides = %+v", rp)
	}
	if _, err := tc.ResolveParams(map[string]string{"mode": "paxos"}); err == nil {
		t.Fatal("bad enum override accepted")
	}
	if _, err := tc.ResolveParams(map[string]string{"warp": "9"}); err == nil {
		t.Fatal("unknown override accepted")
	}
}

// TestManifestValidation pins the schema-level rejections.
func TestManifestValidation(t *testing.T) {
	cases := []struct {
		src, wantSub string
	}{
		{`name = "x"`, "no [[testcases]]"},
		{
			"name = \"x\"\n[[testcases]]\ninstances = { min = 2, max = 4, default = 2 }",
			"missing name",
		},
		{
			"name = \"x\"\n[[testcases]]\nname = \"a\"\ninstances = { min = 8, max = 4, default = 8 }",
			"bad instances range",
		},
		{
			"name = \"x\"\n[[testcases]]\nname = \"a\"\ninstances = { min = 2, max = 4, default = 2 }\n[testcases.params]\nwarp = { type = \"int\", default = 1 }",
			"unknown parameter",
		},
		{
			// The batching knob is not a manifest parameter (it lives on
			// runtime.Config / deploy.Options only): rejected like any
			// other unknown name.
			"name = \"x\"\n[[testcases]]\nname = \"a\"\ninstances = { min = 2, max = 4, default = 2 }\n[testcases.params]\nnobatch = { type = \"bool\", default = true }",
			"param \"nobatch\": unknown parameter",
		},
		{
			"name = \"x\"\n[[testcases]]\nname = \"a\"\ninstances = { min = 2, max = 4, default = 2 }\n[[testcases.churn]]\naction = \"explode\"\nnode = 0\nepoch = 0",
			"unknown action",
		},
		{
			"name = \"x\"\n[[testcases]]\nname = \"a\"\ninstances = { min = 2, max = 4, default = 2 }\n[[testcases]]\nname = \"a\"\ninstances = { min = 2, max = 4, default = 2 }",
			"duplicate testcase",
		},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(tc.src); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseManifest err = %v, want substring %q", err, tc.wantSub)
		}
	}
}

// TestValidateRunConstraints pins the run-level checks: instance bounds,
// the 2t+1 relation, chain and churn ranges.
func TestValidateRunConstraints(t *testing.T) {
	m := repoManifest(t, "crash-restart.toml")
	tc, err := m.Case("")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tc.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Validate(4, rp); err == nil {
		t.Fatal("instances below min accepted")
	}
	if err := tc.Validate(1000, rp); err == nil {
		t.Fatal("instances above max accepted")
	}
	bad := rp
	bad.T = 10
	if err := tc.Validate(5, bad); err == nil {
		t.Fatal("t above (n-1)/2 accepted")
	}
	bad = rp
	bad.ChainLen = rp.T + 1
	if err := tc.Validate(5, bad); err == nil {
		t.Fatal("chain_len above t accepted")
	}
	bad = rp
	bad.Epochs = 2
	if err := tc.Validate(5, bad); err == nil {
		t.Fatal("crash-restart with no rejoin epoch accepted")
	}
}
