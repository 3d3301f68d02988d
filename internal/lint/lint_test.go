package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
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
		{DetrandAnalyzer, "sgxp2p/internal/deploy", true},    // keys every stream a deployment draws from
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
	diags, err := LintModule(loadModule(t), Analyzers())
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

// TestModuleCallsResolveAcrossPackages pins the one type universe that
// sealflow and keyleak rest on: every static call to a module function with
// a body, declared in another package than the caller's, resolves to that
// function's node. With a second type-checked copy of each imported package
// none of them would, and a sink behind a helper in another package would
// go unseen.
func TestModuleCallsResolveAcrossPackages(t *testing.T) {
	pkgs := loadModule(t)
	g := (&ModulePass{Pkgs: pkgs, shared: &moduleShared{}}).Graph()
	// Callees are matched by name, not by object, so that a second copy of
	// a package shows up as calls that fail to resolve.
	hasBody := make(map[string]bool)
	for _, n := range g.Nodes {
		if n.Obj != nil {
			hasBody[n.Obj.FullName()] = true
		}
	}
	var total, missed int
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticModuleCallee(pkg.Info, call)
				if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() == pkg.Path || !hasBody[fn.FullName()] {
					return true
				}
				total++
				for _, c := range g.ResolveSite(call) {
					if c.Obj == fn {
						return true
					}
				}
				missed++
				t.Errorf("%s: call to %s does not resolve", pkg.Fset.Position(call.Pos()), fn.FullName())
				return true
			})
		}
	}
	if total == 0 {
		t.Fatal("found no cross-package static calls")
	}
	t.Logf("%d of %d cross-package static calls resolve", total-missed, total)
}

// staticModuleCallee returns the function or concrete method a call names,
// or nil for interface dispatch, function values, conversions and builtins.
func staticModuleCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	fun := ast.Unparen(call.Fun)
	if ix, ok := fun.(*ast.IndexExpr); ok { // explicit instantiation F[T](...)
		fun = ast.Unparen(ix.X)
	}
	var id *ast.Ident
	switch f := fun.(type) {
	case *ast.Ident:
		id = f
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[f]; ok && types.IsInterface(sel.Recv()) {
			return nil
		}
		id = f.Sel
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// loadModule loads the whole module once for every test that needs it.
func loadModule(t *testing.T) []*Package {
	t.Helper()
	if testing.Short() {
		t.Skip("typechecks the whole module; skipped in -short")
	}
	moduleOnce.Do(func() {
		var root string
		root, moduleErr = ModuleRoot(".")
		if moduleErr == nil {
			modulePkgs, moduleErr = Load(root, "./...")
		}
	})
	if moduleErr != nil {
		t.Fatal(moduleErr)
	}
	if len(modulePkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	return modulePkgs
}

var (
	moduleOnce sync.Once
	modulePkgs []*Package
	moduleErr  error
)
