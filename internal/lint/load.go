package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
)

// Package is one loaded, parsed and type-checked package ready for analysis.
// Only non-test Go files are loaded: every p2plint invariant targets
// production code, and test files routinely (and legitimately) use wall
// clocks, sleeps and discarded errors.
type Package struct {
	Path  string // import path, e.g. sgxp2p/internal/core/erb
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// DepOnly marks a package the patterns reach only as a dependency:
	// the call graph sees into it, but nothing in it is linted.
	DepOnly bool
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
	Standard   bool
	DepOnly    bool
}

// Load resolves the package patterns (e.g. "./...") with `go list -deps`,
// then parses and type-checks every non-standard package in dependency
// order, so each is checked exactly once and every importer of a package
// sees the same *types.Package: a call into another module package finds
// its callee's objects. Only the standard library goes through the source
// importer, which compiles nothing and needs no export data or network.
// Packages the patterns reach only as dependencies are returned too,
// marked DepOnly: the interprocedural analyzers follow calls into them,
// and LintModule reports nothing inside them. dir anchors the go tool invocation and
// must sit inside a module ("" means the current directory); the golden
// fixtures are a module of their own and load the same way.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := &localImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		imp.pkgs[lp.ImportPath] = pkg.Types
		pkg.DepOnly = lp.DepOnly
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// localImporter returns the packages Load has already checked and defers
// only the standard library to the source importer.
type localImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

func (l *localImporter) Import(path string) (*types.Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	return l.std.Import(path)
}

// check parses files (named relative to dir) and type-checks them as one
// package under the given import path.
func check(fset *token.FileSet, imp types.Importer, path, dir string, names []string) (*Package, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: parse %s: %w", name, err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: typecheck %s: %w", path, err)
	}
	return &Package{
		Path:  path,
		Dir:   dir,
		Fset:  fset,
		Files: files,
		Types: tpkg,
		Info:  info,
	}, nil
}

// goList shells out to `go list -deps -json` for package discovery, the only
// part of loading the go/* standard packages cannot do alone in module mode.
// -deps lists every package after all of its dependencies.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-deps", "-json=Dir,ImportPath,GoFiles,Standard,DepOnly", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		var lp listedPackage
		if err := dec.Decode(&lp); err != nil {
			return nil, fmt.Errorf("lint: decode go list output: %w", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// ModuleRoot walks up from dir to the directory holding go.mod, so tests and
// the driver can anchor Load regardless of their own working directory.
func ModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}
