package scenario

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/chaos"
	"sgxp2p/internal/wire"
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

// TestCheckedInManifestsParse pins that every shipped manifest parses and
// validates with its defaults and at each sweep point.
func TestCheckedInManifestsParse(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	paths, err := filepath.Glob(filepath.Join(root, "scenarios", "*.json"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no scenarios/*.json manifests (%v)", err)
	}
	for _, path := range paths {
		name := filepath.Base(path)
		m := repoManifest(t, name)
		if m.Description == "" {
			t.Errorf("%s: no description", name)
		}
		for i := range m.Testcases {
			tc := &m.Testcases[i]
			rp, err := tc.ResolveParams(nil)
			if err != nil {
				t.Fatalf("%s/%s: resolve: %v", name, tc.Name, err)
			}
			for _, n := range append([]int{tc.Instances.Default}, tc.Sweep...) {
				if err := tc.Validate(n, rp); err != nil {
					t.Fatalf("%s/%s: n=%d: %v", name, tc.Name, n, err)
				}
			}
		}
	}
}

// TestResolveParamsDefaultsAndOverrides pins the merge order: built-in
// defaults, then manifest params, then CLI overrides.
func TestResolveParamsDefaultsAndOverrides(t *testing.T) {
	m := repoManifest(t, "honest-sweep.json")
	tc, err := m.Case("erb-honest")
	if err != nil {
		t.Fatal(err)
	}
	rp, err := tc.ResolveParams(nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Mode != "erb" || rp.T != 1 || rp.Delta != 200*time.Millisecond || rp.Epochs != 2 || rp.SlowNode != -1 {
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
		t.Fatal("bad mode override accepted")
	}
	if _, err := tc.ResolveParams(map[string]string{"t": "two"}); err == nil {
		t.Fatal("non-integer override accepted")
	}
	if _, err := tc.ResolveParams(map[string]string{"warp": "9"}); err == nil {
		t.Fatal("unknown override accepted")
	}
}

// TestManifestValidation pins what ParseManifest accepts and the
// rejections it makes before anything runs: schema, params, and fault
// schedules a live fleet cannot run.
func TestManifestValidation(t *testing.T) {
	// manifest wraps testcases; testcase is a valid one with extra fields.
	manifest := func(cases ...string) string {
		return `{"name": "x", "testcases": [` + strings.Join(cases, ", ") + `]}`
	}
	testcase := func(extra string) string {
		return `{"name": "a", "instances": {"min": 5, "max": 8, "default": 5}` + extra + `}`
	}
	// Flips run live: the chain of Section 6.3, and a flip of a crashed
	// node before its restart.
	for _, faults := range []string{
		"flip(0,only-to(1))@r1 flip(1,only-to(2))@r1",
		"crash(4)@r2 flip(4,omit-all)@r3 restart(4)@r6",
	} {
		src := manifest(testcase(`, "params": {"t": 2, "epochs": 2}, "faults": "` + faults + `"`))
		if _, err := ParseManifest(src); err != nil {
			t.Errorf("ParseManifest(%s): %v", src, err)
		}
	}
	cases := []struct {
		src, wantSub string
	}{
		{`{"name": "x"}`, "no testcases"},
		{manifest(`{"instances": {"min": 2, "max": 4, "default": 2}}`), "missing name"},
		{manifest(`{"name": "a", "instances": {"min": 8, "max": 4, "default": 8}}`), "bad instances range"},
		{manifest(testcase(`, "params": {"warp": 1}`)), `unknown parameter "warp"`},
		// The batching knob is not a manifest parameter (it lives on
		// runtime.Config / deploy.Options only): rejected like any other
		// unknown name, as a param or as a field.
		{manifest(testcase(`, "params": {"nobatch": true}`)), `unknown parameter "nobatch"`},
		{manifest(testcase(`, "nobatch": true`)), `unknown field "nobatch"`},
		{`{"name": "x", "nobatch": true, "testcases": []}`, `unknown field "nobatch"`},
		{manifest(testcase(`, "params": {"mode": "paxos"}`)), `unknown mode "paxos": the instance catalogue has erb, erng, erng-opt`},
		{manifest(testcase(`, "params": {"mode": "erng-opt", "t": 2}`)), "optimized ERNG requires t <= N/3, got t=2 N=5"},
		{manifest(testcase(`, "params": {"slow": "all=60ms"}`)), `param "slow"`},
		{manifest(testcase(`, "params": {"delta": 250}`)), `param "delta"`},
		{manifest(testcase(`, "faults": "explode(0)@r1"`)), "unknown event"},
		{manifest(testcase(`, "params": {"chain_len": 2}`)), `unknown parameter "chain_len"`},
		{manifest(testcase(`, "params": {"t": 2}, "faults": "part([0 1 2|3])@r2"`)), "part([0 1 2|3])@r2: a live fleet cannot partition"},
		{manifest(testcase(`, "faults": "heal@r2"`)), "heal@r2: a live fleet cannot partition or heal"},
		{manifest(testcase(`, "faults": "flip(4,omit-all)@r1 restart(4)@r2"`)), "restart(4)@r2: node 4 has not crashed"},
		{manifest(testcase(`, "params": {"epochs": 2}, "faults": "crash(4)@r2 restart(4)@r6"`)), "no later epoch to rejoin"},
		{manifest(testcase(`, "faults": "restart(4)@r2"`)), "has not crashed"},
		{manifest(testcase(`, "faults": "crash(4)@r6"`)), "past the run's last round 5"},
		{manifest(testcase(`, "faults": "crash(9)@r1"`)), "out of range"},
		{manifest(testcase(""), testcase("")), "duplicate testcase"},
	}
	for _, tc := range cases {
		if _, err := ParseManifest(tc.src); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("ParseManifest(%s) err = %v, want substring %q", tc.src, err, tc.wantSub)
		}
	}
}

// TestValidateRunConstraints pins the run-level checks: instance bounds,
// the 2t+1 relation, positive Δ, the fault budget and the fault schedule's
// rejoin epoch.
func TestValidateRunConstraints(t *testing.T) {
	m := repoManifest(t, "crash-restart.json")
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
	for _, c := range []struct {
		what string
		edit func(*Testcase, *RunParams)
	}{
		{"t above (n-1)/2", func(_ *Testcase, p *RunParams) { p.T = 10 }},
		{"t < 0", func(_ *Testcase, p *RunParams) { p.T = -1 }},
		{"delta = 0", func(_ *Testcase, p *RunParams) { p.Delta = 0 }},
		{"delta < 0", func(_ *Testcase, p *RunParams) { p.Delta = -time.Second }},
		{"slow < 0", func(_ *Testcase, p *RunParams) { p.Slow = -time.Millisecond }},
		{"slow_node < -1", func(_ *Testcase, p *RunParams) { p.SlowNode = -2 }},
		{"slow_node >= n", func(_ *Testcase, p *RunParams) { p.SlowNode = 5 }},
		{"flips of t+1 nodes", func(c *Testcase, p *RunParams) {
			c.Faults = chaos.Schedule{}
			for id := 0; id <= p.T; id++ {
				c.Faults.FlipBehavior(wire.NodeID(id), 1, adversary.OmitAll())
			}
		}},
		{"restart with no rejoin epoch", func(_ *Testcase, p *RunParams) { p.Epochs = 2 }},
	} {
		bad, badParams := *tc, rp
		c.edit(&bad, &badParams)
		if err := bad.Validate(5, badParams); err == nil {
			t.Errorf("%s accepted", c.what)
		}
	}
}
