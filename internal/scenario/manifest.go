package scenario

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// Manifest is a declarative scenario: a named collection of testcases,
// each spawning some number of p2pnode processes over real TCP. The
// layout follows the testground composition idiom: [[testcases]] with an
// instances range and a typed [testcases.params] table.
type Manifest struct {
	// Name identifies the scenario in reports and bench output.
	Name string
	// Testcases run in order; each is an independent process fleet.
	Testcases []Testcase
}

// Testcase is one orchestrated run: N processes, one protocol schedule,
// optional churn phases and an instance-count sweep.
type Testcase struct {
	// Name identifies the testcase within the manifest.
	Name string
	// Instances bounds the process count; Default is used unless the
	// runner overrides it (within [Min, Max]).
	Instances Range
	// Params are the typed knobs (mode, t, delta, epochs, chain_len,
	// slow, ...) with defaults; the runner may override any of them.
	Params map[string]Param
	// Churn phases kill and relaunch processes mid-schedule.
	Churn []ChurnPhase
	// Sweep, when non-empty, repeats the testcase at each instance count.
	Sweep []int
	// Expect are the cross-process invariants asserted after the run.
	Expect Expect
}

// Range is the instances constraint of a testcase.
type Range struct {
	Min, Max, Default int
}

// Param is a typed parameter with a default, testground-style:
// { type = "int", default = 3 }.
type Param struct {
	// Type is one of int, string, duration, enum.
	Type string
	// Default is the typed default value (int64, string).
	Default any
	// Values enumerates the legal enum values.
	Values []string
}

// ChurnPhase is one scheduled process-lifecycle event.
type ChurnPhase struct {
	// Action: "crash" kills the node for good; "crash-restart" kills it
	// and relaunches it with -resume-epoch so it rejoins the schedule.
	Action string
	// Node is the process to churn.
	Node int
	// Epoch is the epoch mid-window of which the kill fires; a restart
	// rejoins at Epoch+1.
	Epoch int
}

// Expect is the set of invariants the runner asserts centrally.
type Expect struct {
	// Agreement: every honest node's per-epoch decision (accepted flag
	// and value) must match every other honest node's.
	Agreement bool
	// Accepted: honest nodes must have accepted (not bottom) each epoch.
	Accepted bool
	// MaxRound bounds the honest decision round (0 = unchecked).
	MaxRound int
	// MinRound lower-bounds the honest decision round (0 = unchecked) —
	// the byzantine chain's delay signature.
	MinRound int
}

// knownParams is the closed set of parameter names a manifest may
// declare, with the type each must carry.
var knownParams = map[string]string{
	"mode":      "enum",
	"t":         "int",
	"delta":     "duration",
	"epochs":    "int",
	"chain_len": "int",
	"slow":      "string",
	"slow_node": "int",
	"message":   "string",
}

// RunParams is a fully resolved parameter set for one run.
type RunParams struct {
	Mode     string        `json:"mode"`
	T        int           `json:"t"`
	Delta    time.Duration `json:"delta"`
	Epochs   int           `json:"epochs"`
	ChainLen int           `json:"chain_len"`
	Slow     string        `json:"slow,omitempty"`
	SlowNode int           `json:"slow_node"`
	Message  string        `json:"message,omitempty"`
}

// ParseManifest parses and validates a TOML scenario manifest.
func ParseManifest(src string) (*Manifest, error) {
	tree, err := ParseTOML(src)
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if name, ok := tree["name"].(string); ok {
		m.Name = name
	}
	if m.Name == "" {
		return nil, fmt.Errorf("manifest: missing top-level name")
	}
	rawCases, ok := tree["testcases"].([]any)
	if !ok || len(rawCases) == 0 {
		return nil, fmt.Errorf("manifest %q: no [[testcases]]", m.Name)
	}
	for i, rawCase := range rawCases {
		caseTbl, ok := rawCase.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("manifest %q: testcase %d is not a table", m.Name, i)
		}
		tc, err := decodeTestcase(caseTbl)
		if err != nil {
			return nil, fmt.Errorf("manifest %q: testcase %d: %w", m.Name, i, err)
		}
		m.Testcases = append(m.Testcases, tc)
	}
	names := map[string]bool{}
	for _, tc := range m.Testcases {
		if names[tc.Name] {
			return nil, fmt.Errorf("manifest %q: duplicate testcase %q", m.Name, tc.Name)
		}
		names[tc.Name] = true
	}
	return m, nil
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

// decodeTestcase decodes one [[testcases]] table.
func decodeTestcase(tbl map[string]any) (Testcase, error) {
	tc := Testcase{Params: map[string]Param{}}
	name, _ := tbl["name"].(string)
	if name == "" {
		return tc, fmt.Errorf("missing name")
	}
	tc.Name = name

	instTbl, ok := tbl["instances"].(map[string]any)
	if !ok {
		return tc, fmt.Errorf("missing instances = { min, max, default }")
	}
	var err error
	if tc.Instances.Min, err = intField(instTbl, "min"); err != nil {
		return tc, err
	}
	if tc.Instances.Max, err = intField(instTbl, "max"); err != nil {
		return tc, err
	}
	if tc.Instances.Default, err = intField(instTbl, "default"); err != nil {
		return tc, err
	}
	r := tc.Instances
	if r.Min < 2 || r.Max < r.Min || r.Default < r.Min || r.Default > r.Max {
		return tc, fmt.Errorf("bad instances range min=%d max=%d default=%d", r.Min, r.Max, r.Default)
	}

	if rawParams, ok := tbl["params"].(map[string]any); ok {
		keys := make([]string, 0, len(rawParams))
		for k := range rawParams {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			p, perr := decodeParam(key, rawParams[key])
			if perr != nil {
				return tc, perr
			}
			tc.Params[key] = p
		}
	}

	if rawChurn, ok := tbl["churn"].([]any); ok {
		for i, rawPhase := range rawChurn {
			phaseTbl, ok := rawPhase.(map[string]any)
			if !ok {
				return tc, fmt.Errorf("churn %d is not a table", i)
			}
			phase := ChurnPhase{}
			phase.Action, _ = phaseTbl["action"].(string)
			if phase.Action != "crash" && phase.Action != "crash-restart" {
				return tc, fmt.Errorf("churn %d: unknown action %q", i, phase.Action)
			}
			if phase.Node, err = intField(phaseTbl, "node"); err != nil {
				return tc, fmt.Errorf("churn %d: %w", i, err)
			}
			if phase.Epoch, err = intField(phaseTbl, "epoch"); err != nil {
				return tc, fmt.Errorf("churn %d: %w", i, err)
			}
			tc.Churn = append(tc.Churn, phase)
		}
	}

	if rawSweep, ok := tbl["sweep"].(map[string]any); ok {
		list, ok := rawSweep["instances"].([]any)
		if !ok {
			return tc, fmt.Errorf("sweep: missing instances list")
		}
		for _, v := range list {
			iv, ok := v.(int64)
			if !ok {
				return tc, fmt.Errorf("sweep: non-integer instance count %v", v)
			}
			tc.Sweep = append(tc.Sweep, int(iv))
		}
	}

	if rawExpect, ok := tbl["expect"].(map[string]any); ok {
		tc.Expect.Agreement, _ = rawExpect["agreement"].(bool)
		tc.Expect.Accepted, _ = rawExpect["accepted"].(bool)
		if _, ok := rawExpect["max_round"]; ok {
			if tc.Expect.MaxRound, err = intField(rawExpect, "max_round"); err != nil {
				return tc, err
			}
		}
		if _, ok := rawExpect["min_round"]; ok {
			if tc.Expect.MinRound, err = intField(rawExpect, "min_round"); err != nil {
				return tc, err
			}
		}
	}
	return tc, nil
}

// decodeParam decodes one { type = ..., default = ... } entry.
func decodeParam(key string, raw any) (Param, error) {
	wantType, known := knownParams[key]
	if !known {
		return Param{}, fmt.Errorf("param %q: unknown parameter", key)
	}
	tbl, ok := raw.(map[string]any)
	if !ok {
		return Param{}, fmt.Errorf("param %q: expected { type = ..., default = ... }", key)
	}
	p := Param{}
	p.Type, _ = tbl["type"].(string)
	if p.Type != wantType {
		return Param{}, fmt.Errorf("param %q: type %q, want %q", key, p.Type, wantType)
	}
	p.Default = tbl["default"]
	if rawValues, ok := tbl["values"].([]any); ok {
		for _, v := range rawValues {
			s, ok := v.(string)
			if !ok {
				return Param{}, fmt.Errorf("param %q: non-string enum value %v", key, v)
			}
			p.Values = append(p.Values, s)
		}
	}
	if _, err := coerceParam(key, p, p.Default); err != nil {
		return Param{}, fmt.Errorf("param %q: bad default: %w", key, err)
	}
	return p, nil
}

// intField reads a required integer key from a table.
func intField(tbl map[string]any, key string) (int, error) {
	v, ok := tbl[key].(int64)
	if !ok {
		return 0, fmt.Errorf("missing or non-integer %q", key)
	}
	return int(v), nil
}

// coerceParam validates a raw value (default or override) against the
// parameter's type and returns its canonical Go value.
func coerceParam(key string, p Param, raw any) (any, error) {
	switch p.Type {
	case "int":
		switch v := raw.(type) {
		case int64:
			return int(v), nil
		case string:
			var i int
			if _, err := fmt.Sscanf(v, "%d", &i); err != nil {
				return nil, fmt.Errorf("%q is not an int", v)
			}
			return i, nil
		}
	case "string":
		if v, ok := raw.(string); ok {
			return v, nil
		}
	case "duration":
		if v, ok := raw.(string); ok {
			d, err := time.ParseDuration(v)
			if err != nil {
				return nil, err
			}
			return d, nil
		}
	case "enum":
		v, ok := raw.(string)
		if !ok {
			break
		}
		for _, allowed := range p.Values {
			if v == allowed {
				return v, nil
			}
		}
		return nil, fmt.Errorf("%q not in enum %v", v, p.Values)
	}
	return nil, fmt.Errorf("param %q: value %v does not match type %s", key, raw, p.Type)
}

// ResolveParams merges the testcase defaults with string overrides (CLI
// -param key=value) into the concrete RunParams for one run.
func (tc *Testcase) ResolveParams(overrides map[string]string) (RunParams, error) {
	rp := RunParams{
		Mode:     "erb",
		T:        1,
		Delta:    250 * time.Millisecond,
		Epochs:   1,
		SlowNode: -1,
		Message:  "scenario broadcast",
	}
	apply := func(key string, val any) {
		switch key {
		case "mode":
			rp.Mode = val.(string)
		case "t":
			rp.T = val.(int)
		case "delta":
			rp.Delta = val.(time.Duration)
		case "epochs":
			rp.Epochs = val.(int)
		case "chain_len":
			rp.ChainLen = val.(int)
		case "slow":
			rp.Slow = val.(string)
		case "slow_node":
			rp.SlowNode = val.(int)
		case "message":
			rp.Message = val.(string)
		}
	}
	keys := make([]string, 0, len(tc.Params))
	for k := range tc.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		v, err := coerceParam(key, tc.Params[key], tc.Params[key].Default)
		if err != nil {
			return rp, err
		}
		apply(key, v)
	}
	oKeys := make([]string, 0, len(overrides))
	for k := range overrides {
		oKeys = append(oKeys, k)
	}
	sort.Strings(oKeys)
	for _, key := range oKeys {
		p, declared := tc.Params[key]
		if !declared {
			wantType, known := knownParams[key]
			if !known {
				return rp, fmt.Errorf("override %q: unknown parameter", key)
			}
			p = Param{Type: wantType}
			if wantType == "enum" {
				p.Values = []string{"erb", "erng"}
			}
		}
		v, err := coerceParam(key, p, overrides[key])
		if err != nil {
			return rp, fmt.Errorf("override %q: %w", key, err)
		}
		apply(key, v)
	}
	if rp.Mode != "erb" && rp.Mode != "erng" {
		return rp, fmt.Errorf("mode %q not erb or erng", rp.Mode)
	}
	if rp.Epochs < 1 {
		return rp, fmt.Errorf("epochs %d < 1", rp.Epochs)
	}
	return rp, nil
}

// Validate checks a resolved run against the testcase's constraints.
func (tc *Testcase) Validate(n int, rp RunParams) error {
	if n < tc.Instances.Min || n > tc.Instances.Max {
		return fmt.Errorf("instances %d outside [%d, %d]", n, tc.Instances.Min, tc.Instances.Max)
	}
	if 2*rp.T+1 > n {
		return fmt.Errorf("t=%d needs n >= %d, have %d", rp.T, 2*rp.T+1, n)
	}
	if rp.ChainLen > rp.T {
		return fmt.Errorf("chain_len %d exceeds byzantine bound t=%d", rp.ChainLen, rp.T)
	}
	if rp.ChainLen >= n {
		return fmt.Errorf("chain_len %d leaves no honest release node", rp.ChainLen)
	}
	if rp.SlowNode >= n {
		return fmt.Errorf("slow_node %d outside fleet of %d", rp.SlowNode, n)
	}
	for _, phase := range tc.Churn {
		if phase.Node < 0 || phase.Node >= n {
			return fmt.Errorf("churn node %d outside fleet of %d", phase.Node, n)
		}
		if phase.Epoch < 0 || phase.Epoch >= rp.Epochs {
			return fmt.Errorf("churn epoch %d outside schedule of %d epochs", phase.Epoch, rp.Epochs)
		}
		if phase.Action == "crash-restart" && phase.Epoch+1 >= rp.Epochs {
			return fmt.Errorf("crash-restart at epoch %d needs a later epoch to rejoin", phase.Epoch)
		}
	}
	return nil
}

// String renders the resolved parameters compactly for reports.
func (rp RunParams) String() string {
	b, err := json.Marshal(rp)
	if err != nil {
		return fmt.Sprintf("%+v", struct{ RunParams }{rp})
	}
	return strings.ReplaceAll(string(b), `"`, "")
}
