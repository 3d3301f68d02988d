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
	"sort"
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
}

// listedPackage is the subset of `go list -json` output the loader needs.
type listedPackage struct {
	Dir        string
	ImportPath string
	GoFiles    []string
}

// Load resolves the package patterns (e.g. "./...") with the go tool, then
// parses and type-checks every matched package with the standard library's
// source importer. The importer compiles nothing and follows imports from
// source, so the loader works in this module without export data and without
// network access. dir anchors the go tool invocation; "" means the current
// directory (it must sit inside the module).
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "source", nil)
	var pkgs []*Package
	for _, lp := range listed {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := check(fset, imp, lp.ImportPath, lp.Dir, lp.GoFiles)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// LoadDirAll parses and type-checks a testdata tree outside the module (the
// golden harness loads fixtures this way) and returns every package in it,
// all sharing one FileSet: the subdirectory fakes first, then dir's own
// package. Each subdirectory holding .go files is made importable by its
// slash path relative to dir (e.g. "internal/runtime"), so a fixture can
// model cross-package boundaries with local fakes; everything else resolves
// against the standard library.
func LoadDirAll(dir string) ([]*Package, error) {
	files, err := goFilesIn(dir)
	if err != nil {
		return nil, err
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no .go files in %s", dir)
	}
	fset := token.NewFileSet()
	imp := &localImporter{
		std:  importer.ForCompiler(fset, "source", nil),
		pkgs: make(map[string]*types.Package),
	}
	subs, err := subPackageDirs(dir)
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, rel := range subs {
		subFiles, serr := goFilesIn(filepath.Join(dir, rel))
		if serr != nil {
			return nil, serr
		}
		path := filepath.ToSlash(rel)
		pkg, serr := check(fset, imp, path, filepath.Join(dir, rel), subFiles)
		if serr != nil {
			return nil, serr
		}
		imp.pkgs[path] = pkg.Types
		pkgs = append(pkgs, pkg)
	}
	main, err := check(fset, imp, filepath.Base(dir), dir, files)
	if err != nil {
		return nil, err
	}
	return append(pkgs, main), nil
}

// localImporter resolves pre-loaded local packages by relative path and
// defers everything else to the standard source importer.
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

// goFilesIn lists the non-test .go file names directly inside dir, sorted.
func goFilesIn(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			files = append(files, e.Name())
		}
	}
	sort.Strings(files)
	return files, nil
}

// subPackageDirs walks dir's subtree and returns the relative paths of every
// subdirectory holding .go files, sorted so loading is deterministic.
// Local fakes must import only the standard library (or subpackages that
// sort before them).
func subPackageDirs(dir string) ([]string, error) {
	var subs []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, walkErr error) error {
		if walkErr != nil || !d.IsDir() || path == dir {
			return walkErr
		}
		files, ferr := goFilesIn(path)
		if ferr != nil {
			return ferr
		}
		if len(files) > 0 {
			rel, rerr := filepath.Rel(dir, path)
			if rerr != nil {
				return rerr
			}
			subs = append(subs, rel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Strings(subs)
	return subs, nil
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

// goList shells out to `go list -json` for package discovery, the only part
// of loading the go/* standard packages cannot do alone in module mode.
func goList(dir string, patterns []string) ([]listedPackage, error) {
	args := append([]string{"list", "-json=Dir,ImportPath,GoFiles", "--"}, patterns...)
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
