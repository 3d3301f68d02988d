package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"sgxp2p/internal/chaos"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/wire"
)

// Manifest is a declarative scenario: a named collection of testcases,
// each spawning some number of p2pnode processes over real TCP. The
// layout follows the testground composition idiom — testcases with an
// instances range and params over data — written as JSON.
type Manifest struct {
	// Name identifies the scenario in reports and bench output.
	Name string `json:"name"`
	// Description says what the scenario exercises; -list prints it.
	Description string `json:"description"`
	// Testcases run in order; each is an independent process fleet.
	Testcases []Testcase `json:"testcases"`
}

// Testcase is one orchestrated run: N processes, one protocol schedule,
// an optional fault schedule and an instance-count sweep.
type Testcase struct {
	// Name identifies the testcase within the manifest.
	Name string `json:"name"`
	// Instances bounds the process count; Default is used unless the
	// runner overrides it (within [Min, Max]).
	Instances Range `json:"instances"`
	// Params set RunParams fields by their JSON names ("t": 2, "delta":
	// "200ms"); the runner may override any of them.
	Params map[string]any `json:"params"`
	// Faults is a chaos schedule in its String() form, e.g.
	// "crash(4)@r10 restart(4)@r11" or "flip(0,only-to(1))@r1"; Validate
	// holds the live rules. The runner executes crashes and restarts, and
	// each node its own flips.
	Faults chaos.Schedule `json:"faults"`
	// Sweep, when non-empty, repeats the testcase at each instance count.
	Sweep []int `json:"sweep"`
	// Expect are the cross-process invariants asserted after the run.
	Expect Expect `json:"expect"`
}

// Range is the instances constraint of a testcase.
type Range struct {
	Min     int `json:"min"`
	Max     int `json:"max"`
	Default int `json:"default"`
}

// Expect is the set of invariants the runner asserts centrally.
type Expect struct {
	// Agreement: every honest node's per-epoch decision (accepted flag
	// and value) must match every other honest node's.
	Agreement bool `json:"agreement"`
	// Accepted: honest nodes must have accepted (not bottom) each epoch.
	Accepted bool `json:"accepted"`
	// MaxRound bounds the honest decision round (0 = unchecked).
	MaxRound int `json:"max_round"`
	// MinRound lower-bounds the honest decision round (0 = unchecked) —
	// the byzantine chain's delay signature.
	MinRound int `json:"min_round"`
}

// RunParams is a fully resolved parameter set for one run.
type RunParams struct {
	Mode     string        `json:"mode"`
	T        int           `json:"t"`
	Delta    time.Duration `json:"delta"`
	Epochs   int           `json:"epochs"`
	Slow     time.Duration `json:"slow,omitempty"`
	SlowNode int           `json:"slow_node"`
	Message  string        `json:"message,omitempty"`
}

// ParseManifest decodes a JSON scenario manifest and checks that every
// testcase runs as written: unknown fields, bad params and fault
// schedules a live fleet cannot run are errors before any process spawns.
func ParseManifest(src string) (*Manifest, error) {
	dec := json.NewDecoder(strings.NewReader(src))
	dec.DisallowUnknownFields()
	dec.UseNumber()
	m := &Manifest{}
	if err := dec.Decode(m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.Name == "" {
		return nil, fmt.Errorf("manifest: missing name")
	}
	if len(m.Testcases) == 0 {
		return nil, fmt.Errorf("manifest %q: no testcases", m.Name)
	}
	names := map[string]bool{}
	for i := range m.Testcases {
		tc := &m.Testcases[i]
		if err := tc.check(); err != nil {
			return nil, fmt.Errorf("manifest %q: testcase %d %q: %w", m.Name, i, tc.Name, err)
		}
		if names[tc.Name] {
			return nil, fmt.Errorf("manifest %q: duplicate testcase %q", m.Name, tc.Name)
		}
		names[tc.Name] = true
	}
	return m, nil
}

// check validates one decoded testcase at its default instance count.
func (tc *Testcase) check() error {
	if tc.Name == "" {
		return fmt.Errorf("missing name")
	}
	r := tc.Instances
	if r.Min < 2 || r.Max < r.Min || r.Default < r.Min || r.Default > r.Max {
		return fmt.Errorf("bad instances range min=%d max=%d default=%d", r.Min, r.Max, r.Default)
	}
	rp, err := tc.ResolveParams(nil)
	if err != nil {
		return err
	}
	return tc.Validate(r.Default, rp)
}

// Case returns the named testcase, or the first one for name "".
func (m *Manifest) Case(name string) (*Testcase, error) {
	if name == "" {
		return &m.Testcases[0], nil
	}
	for i := range m.Testcases {
		if m.Testcases[i].Name == name {
			return &m.Testcases[i], nil
		}
	}
	return nil, fmt.Errorf("manifest %q: no testcase %q", m.Name, name)
}

// Set assigns one parameter, by its JSON name, from its text: a manifest
// value or a -param key=value override.
func (rp *RunParams) Set(key, value string) error {
	var err error
	switch key {
	case "mode":
		_, err = deploy.LookupKind(value)
		rp.Mode = value
	case "t":
		rp.T, err = strconv.Atoi(value)
	case "delta":
		rp.Delta, err = time.ParseDuration(value)
	case "epochs":
		rp.Epochs, err = strconv.Atoi(value)
	case "slow":
		rp.Slow, err = time.ParseDuration(value)
	case "slow_node":
		rp.SlowNode, err = strconv.Atoi(value)
	case "message":
		rp.Message = value
	default:
		return fmt.Errorf("unknown parameter %q", key)
	}
	if err != nil {
		return fmt.Errorf("param %q: %w", key, err)
	}
	return nil
}

// ResolveParams applies the testcase's params, then the overrides (CLI
// -param key=value), to the built-in defaults.
func (tc *Testcase) ResolveParams(overrides map[string]string) (RunParams, error) {
	rp := RunParams{
		Mode:     "erb",
		T:        1,
		Delta:    250 * time.Millisecond,
		Epochs:   1,
		SlowNode: -1,
		Message:  "scenario broadcast",
	}
	vals := make(map[string]string, len(tc.Params)+len(overrides))
	for k, v := range tc.Params {
		vals[k] = fmt.Sprint(v)
	}
	for k, v := range overrides {
		vals[k] = v
	}
	keys := make([]string, 0, len(vals))
	for k := range vals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := rp.Set(k, vals[k]); err != nil {
			return rp, err
		}
	}
	return rp, nil
}

// Validate checks a resolved run of n processes against the testcase's
// constraints, before any process spawns. The mode must run at (n, t) by
// the instance catalogue's own rule (EpochRounds). The fault schedule
// must pass chaos's own checks, whose fault budget bounds the flipped
// nodes too, plus the live rules: a live fleet crashes, restarts and
// flips nodes but does not partition them (a minority that P4 halts has
// no rule to rejoin by), every event falls inside the run, a restart
// follows a crash of the same node, and every restart leaves a later
// epoch to rejoin.
func (tc *Testcase) Validate(n int, rp RunParams) error {
	if n < tc.Instances.Min || n > tc.Instances.Max {
		return fmt.Errorf("instances %d outside [%d, %d]", n, tc.Instances.Min, tc.Instances.Max)
	}
	rounds, err := EpochRounds(rp.Mode, n, rp.T)
	if err != nil {
		return fmt.Errorf("mode %s: %w", rp.Mode, err)
	}
	if rp.Delta <= 0 {
		return fmt.Errorf("delta %v is not positive", rp.Delta)
	}
	if rp.Epochs < 1 {
		return fmt.Errorf("epochs %d < 1", rp.Epochs)
	}
	if rp.Slow < 0 {
		return fmt.Errorf("slow %v is negative", rp.Slow)
	}
	if rp.SlowNode < -1 || rp.SlowNode >= n {
		return fmt.Errorf("slow_node %d outside fleet of %d (-1: every node)", rp.SlowNode, n)
	}
	if err := tc.Faults.Validate(n, rp.T); err != nil {
		return err
	}
	last := rp.Epochs * rounds
	down := map[wire.NodeID]bool{}
	for _, ev := range tc.Faults.Events() {
		switch {
		case ev.Kind == chaos.KindPartition || ev.Kind == chaos.KindHeal:
			return fmt.Errorf("faults: %s: a live fleet cannot partition or heal", ev)
		case ev.Round > last:
			return fmt.Errorf("faults: %s: past the run's last round %d", ev, last)
		case ev.Kind == chaos.KindRestart && !down[ev.Node]:
			return fmt.Errorf("faults: %s: node %d has not crashed", ev, ev.Node)
		case ev.Kind == chaos.KindRestart && resumeEpoch(ev.Round, rounds) >= rp.Epochs:
			return fmt.Errorf("faults: %s: no later epoch to rejoin in %d epochs", ev, rp.Epochs)
		}
		if ev.Kind != chaos.KindFlip {
			down[ev.Node] = ev.Kind == chaos.KindCrash
		}
	}
	return nil
}

// Byzantine reports whether the fault schedule flips node id — the one
// rule that makes a live node byzantine, in the node's result and in the
// runner's report. The decision invariants skip byzantine nodes.
func Byzantine(faults *chaos.Schedule, id int) bool {
	for _, ev := range faults.Events() {
		if ev.Kind == chaos.KindFlip && int(ev.Node) == id {
			return true
		}
	}
	return false
}

// String renders the resolved parameters compactly for reports.
func (rp RunParams) String() string {
	b, err := json.Marshal(rp)
	if err != nil {
		return fmt.Sprintf("%+v", struct{ RunParams }{rp})
	}
	return strings.ReplaceAll(string(b), `"`, "")
}
