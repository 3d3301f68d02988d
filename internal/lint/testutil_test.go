package lint

// analysistest-style golden harness. Each analyzer has a package under
// testdata/src/<name>/ whose files carry expectations as comments:
//
//	foo() // want "regexp matching the diagnostic"
//	// wantbelow "regexp"   — expectation for the NEXT line (used when the
//	                          next line's only comment is a //lint:allow
//	                          directive under test)
//
// testdata/src is one module (its own go.mod), so the harness loads a
// fixture tree (its package plus any local internal/* fakes, imported by
// module path) with Load, the loader p2plint uses, lints it through
// LintModule — the driver p2plint uses, so suppression, malformed-directive
// and stale-directive reporting behave identically — and fails on any
// diagnostic without a matching expectation or expectation without a
// diagnostic.

import (
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

var wantRe = regexp.MustCompile(`//\s*(wantbelow|want)\s+("(?:[^"\\]|\\.)*")`)

type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// runGolden lints testdata/src/<dirName> with the given analyzers and
// checks the diagnostics against the want comments. Fixture package paths
// do not live under sgxp2p/, so the analyzers run unscoped; scoping itself
// is unit-tested in TestScopes.
func runGolden(t *testing.T, dirName string, analyzers ...*Analyzer) {
	t.Helper()
	runGoldenPattern(t, "./"+dirName+"/...", analyzers...)
}

// runGoldenPattern is runGolden over the packages one pattern lists in
// testdata/src: the want comments of the packages it reaches only as
// dependencies are not expected, since nothing in them is reported.
func runGoldenPattern(t *testing.T, pattern string, analyzers ...*Analyzer) {
	t.Helper()
	pkgs, err := Load(filepath.Join("testdata", "src"), pattern)
	if err != nil {
		t.Fatalf("load testdata %s: %v", pattern, err)
	}
	unscoped := make([]*Analyzer, len(analyzers))
	for i, a := range analyzers {
		c := *a
		c.Packages = nil
		unscoped[i] = &c
	}
	diags, err := LintModule(pkgs, unscoped)
	if err != nil {
		t.Fatalf("lint %s: %v", pattern, err)
	}
	var wants []*expectation
	for _, pkg := range pkgs {
		if !pkg.DepOnly {
			wants = append(wants, collectWants(t, pkg)...)
		}
	}
	for _, d := range diags {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func collectWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRe.FindAllStringSubmatch(c.Text, -1) {
					pattern, err := strconv.Unquote(m[2])
					if err != nil {
						t.Fatalf("bad want comment %q: %v", c.Text, err)
					}
					pos := pkg.Fset.Position(c.Pos())
					line := pos.Line
					if m[1] == "wantbelow" {
						line++
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: line,
						re:   regexp.MustCompile(pattern),
					})
				}
			}
		}
	}
	return wants
}

func matchWant(wants []*expectation, d Diagnostic) bool {
	for _, w := range wants {
		if !w.hit && w.file == d.Position.Filename && w.line == d.Position.Line && w.re.MatchString(d.Message) {
			w.hit = true
			return true
		}
	}
	return false
}
