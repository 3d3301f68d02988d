package lint

import (
	"go/token"
	"strings"
	"testing"
)

// TestScopes pins the analyzer-to-package mapping: the determinism
// invariant applies exactly to the replayable subtree (not to the live
// transports, which nothing replays), while the error-handling and general
// passes run module-wide.
func TestScopes(t *testing.T) {
	cases := []struct {
		analyzer *Analyzer
		path     string
		want     bool
	}{
		{DetrandAnalyzer, "sgxp2p/internal/core/erb", true},
		{DetrandAnalyzer, "sgxp2p/internal/core", true},
		{DetrandAnalyzer, "sgxp2p/internal/chaos", true},
		{DetrandAnalyzer, "sgxp2p/internal/vclock", true},
		{DetrandAnalyzer, "sgxp2p/internal/simnet", true},
		{DetrandAnalyzer, "sgxp2p/internal/adversary", true},
		{DetrandAnalyzer, "sgxp2p/internal/runtime", true},
		{DetrandAnalyzer, "sgxp2p/internal/telemetry", true},
		{DetrandAnalyzer, "sgxp2p/internal/tcpnet", false},   // real sockets: wall-clock by definition
		{DetrandAnalyzer, "sgxp2p/internal/scenario", false}, // real child processes, likewise
		{DetrandAnalyzer, "sgxp2p/internal/deploy", false},
		{DroperrAnalyzer, "sgxp2p/cmd/p2ptrace", true},
		{DetrandAnalyzer, "sgxp2p/internal/corebis", false}, // prefix must respect path boundaries
		{DetrandAnalyzer, "sgxp2p/internal/experiments", false},
		{DetrandAnalyzer, "sgxp2p/cmd/p2pnode", false},
		{MuxboundaryAnalyzer, "sgxp2p/internal/core/erb", true},
		{MuxboundaryAnalyzer, "sgxp2p/internal/core/erng", true},
		{MuxboundaryAnalyzer, "sgxp2p/internal/runtime", false}, // the runtime owns those symbols
		{MuxboundaryAnalyzer, "sgxp2p/internal/deploy", false},  // node-scoped wiring is its job
		{DroperrAnalyzer, "sgxp2p/internal/baseline", true},
		{MaporderAnalyzer, "sgxp2p", true},
		{ShadowAnalyzer, "sgxp2p/examples/beacon", true},
	}
	for _, c := range cases {
		if got := c.analyzer.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%q) = %v, want %v", c.analyzer.Name, c.path, got, c.want)
		}
	}
}

// TestRegistry pins the battery composition and that names used in
// //lint:allow directives stay stable.
func TestRegistry(t *testing.T) {
	want := []string{"detrand", "maporder", "droperr", "muxboundary", "shadow", "sealflow", "keyleak"}
	got := Analyzers()
	if len(got) != len(want) {
		t.Fatalf("Analyzers() returned %d analyzers, want %d", len(got), len(want))
	}
	for i, a := range got {
		if a.Name != want[i] {
			t.Errorf("Analyzers()[%d].Name = %q, want %q", i, a.Name, want[i])
		}
		if a.Doc == "" {
			t.Errorf("analyzer %q has no Doc", a.Name)
		}
		if a.Run == nil && a.RunModule == nil {
			t.Errorf("analyzer %q has neither Run nor RunModule", a.Name)
		}
	}
}

// TestSuppressionIsFilePrecise ensures a directive in one file cannot
// silence a finding at the same line number of a sibling file.
func TestSuppressionIsFilePrecise(t *testing.T) {
	dirs := []directive{{analyzer: "detrand", file: "a.go", line: 10}}
	diags := []Diagnostic{
		{Analyzer: "detrand", Position: position("a.go", 10), Message: "same file"},
		{Analyzer: "detrand", Position: position("b.go", 10), Message: "other file"},
		{Analyzer: "maporder", Position: position("a.go", 10), Message: "other analyzer"},
		{Analyzer: "detrand", Position: position("a.go", 11), Message: "line below"},
		{Analyzer: "detrand", Position: position("a.go", 12), Message: "two below"},
	}
	kept := filterSuppressed(diags, dirs)
	var msgs []string
	for _, d := range kept {
		msgs = append(msgs, d.Message)
	}
	got := strings.Join(msgs, "|")
	want := "other file|other analyzer|two below"
	if got != want {
		t.Errorf("filterSuppressed kept %q, want %q", got, want)
	}
}

// TestModuleIsLintClean is the acceptance gate in test form: the whole
// module must carry zero unsuppressed findings, exactly like `make lint`.
// A regression here means new code broke a determinism/boundary invariant
// (or dropped a mandatory suppression reason).
func TestModuleIsLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(root, "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	diags, err := LintModule(pkgs, Analyzers())
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

func position(file string, line int) (p token.Position) {
	p.Filename = file
	p.Line = line
	return p
}
