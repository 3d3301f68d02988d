// Package lint is p2plint's analysis engine: a small, dependency-free
// reimplementation of the golang.org/x/tools/go/analysis surface (Analyzer,
// Pass, Diagnostic) plus the project-specific analyzers that mechanically
// enforce the reproduction's coding invariants — replayable determinism and
// lockstep rounds (paper properties P1/F2, P5), the seal boundary (P2/P3)
// and enclave-boundary error handling. Each analyzer guards one invariant;
// DESIGN.md §9 records what each has caught.
//
// The framework mirrors x/tools deliberately: each check is an *Analyzer
// with a Run(*Pass) function reporting Diagnostics, and golden tests use an
// analysistest-style `// want "regexp"` harness (see testutil_test.go). We
// do not vendor x/tools itself — the build must stay self-contained on the
// Go standard library — so the one x/tools pass we adopt (shadow) is a
// local reimplementation of the same diagnostic.
//
// Suppressions use the directive
//
//	//lint:allow <analyzer> <reason>
//
// placed on the offending line or on the line directly above it. The reason
// is mandatory; a directive without one is itself a finding (see
// suppress.go).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"sgxp2p/internal/lint/flow"
)

// Analyzer describes one static check, mirroring analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //lint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is the one-paragraph description printed by `p2plint -help`.
	Doc string
	// Packages restricts the analyzer to packages whose import path equals
	// one of these prefixes or lives below it (prefix + "/"). Nil means the
	// analyzer applies module-wide.
	Packages []string
	// Run performs the analysis on one package and reports findings via
	// pass.Reportf. Nil for module-level analyzers.
	Run func(*Pass) error
	// RunModule performs a whole-module analysis over every loaded package
	// at once (the interprocedural analyzers — sealflow, keyleak). Nil for
	// per-package analyzers.
	RunModule func(*ModulePass) error
}

// AppliesTo reports whether the analyzer's package scope covers path.
func (a *Analyzer) AppliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	Path      string // import path (Pkg.Path() may be vendor-mangled)
	TypesInfo *types.Info

	diags []Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Position token.Position
	Message  string
}

// String renders the diagnostic in the canonical file:line:col form consumed
// by editors and CI logs.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

// ModulePass carries a module analyzer's view of every loaded package at
// once. The interprocedural analyzers share one lazily built call graph per
// LintModule invocation.
type ModulePass struct {
	Analyzer *Analyzer
	// Fset is the file set shared by all loaded packages (Load uses a
	// single one).
	Fset *token.FileSet
	Pkgs []*Package

	shared *moduleShared
	diags  []Diagnostic
}

// moduleShared holds state built once and reused by every module analyzer
// in the same LintModule run.
type moduleShared struct {
	graph *flow.Graph
}

// Graph returns the module-wide call graph, building it on first use.
func (p *ModulePass) Graph() *flow.Graph {
	if p.shared.graph == nil {
		infos := make([]*flow.PackageInfo, len(p.Pkgs))
		for i, pkg := range p.Pkgs {
			infos[i] = &flow.PackageInfo{
				Path:  pkg.Path,
				Fset:  pkg.Fset,
				Files: pkg.Files,
				Types: pkg.Types,
				Info:  pkg.Info,
			}
		}
		p.shared.graph = flow.BuildGraph(infos)
	}
	return p.shared.graph
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      pos,
		Position: p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// LintModule is the one lint driver (p2plint and the golden tests both call
// it): per-package analyzers on each listed package in their scope, module
// analyzers once over everything, DepOnly packages included, so a call
// into a dependency is followed into it; it then keeps the findings inside
// the listed packages, applies suppression directives, reports malformed
// and stale directives, and returns the surviving diagnostics sorted by
// position. All packages must share one FileSet (Load guarantees this).
func LintModule(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	fset := pkgs[0].Fset
	listed := make(map[string]bool)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			listed[fset.Position(f.Package).Filename] = !pkg.DepOnly
		}
	}
	var raw []Diagnostic
	ran := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		ran[a.Name] = true
		if a.Run == nil {
			continue
		}
		for _, pkg := range pkgs {
			if pkg.DepOnly || !a.AppliesTo(pkg.Path) {
				continue
			}
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				Path:      pkg.Path,
				TypesInfo: pkg.Info,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
			raw = append(raw, pass.diags...)
		}
	}
	shared := &moduleShared{}
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		mp := &ModulePass{Analyzer: a, Fset: fset, Pkgs: pkgs, shared: shared}
		if err := a.RunModule(mp); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range mp.diags {
			if listed[d.Position.Filename] {
				raw = append(raw, d)
			}
		}
	}
	var dirs []directive
	var dirDiags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.DepOnly {
			continue
		}
		ds, dd := collectDirectives(pkg.Fset, pkg.Files)
		dirs = append(dirs, ds...)
		dirDiags = append(dirDiags, dd...)
	}
	// Stale detection reads raw before filterSuppressed compacts the slice
	// in place.
	stale := staleDirectives(fset, dirs, raw, ran)
	diags := filterSuppressed(raw, dirs)
	diags = append(diags, dirDiags...)
	diags = append(diags, stale...)
	sortDiagnostics(diags)
	return diags, nil
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Position, diags[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
}
