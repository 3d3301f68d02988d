// Command p2plint is the project's static-analysis gate: a multichecker
// over the analyzers in internal/lint, one per invariant the reproduction
// rests on — replayable determinism and lockstep rounds (detrand: P1/F2,
// P5), map-order-free output (maporder), handled boundary and evidence
// errors (droperr), the mux capability boundary (muxboundary), the locally
// reimplemented shadow pass, and the interprocedural seal boundary built on
// internal/lint/flow (sealflow, keyleak). DESIGN.md §9 records what each
// has caught. It is wired into `make lint` and the tier-1 `make verify`
// gate.
//
// Usage:
//
//	p2plint [-only name,name] [-list] [packages...]
//
// Packages default to ./... resolved from the enclosing module root. The
// exit status is 1 when any finding survives suppression; suppress
// deliberate violations in-source with `//lint:allow <analyzer> <reason>`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sgxp2p/internal/lint"
)

func main() {
	only := flag.String("only", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = usage
	flag.Parse()

	analyzers := lint.Analyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *only != "" {
		analyzers = selectAnalyzers(analyzers, strings.Split(*only, ","))
	}

	root, err := lint.ModuleRoot(".")
	if err != nil {
		fatal(err)
	}
	pkgs, err := lint.Load(root, flag.Args()...)
	if err != nil {
		fatal(err)
	}
	diags, err := lint.LintModule(pkgs, analyzers)
	if err != nil {
		fatal(err)
	}
	for _, d := range diags {
		p := d.Position
		fmt.Printf("%s:%d:%d: %s: %s\n", relPath(root, p.Filename), p.Line, p.Column, d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "p2plint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}

func relPath(root, file string) string {
	if rel, err := filepath.Rel(root, file); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return file
}

func selectAnalyzers(all []*lint.Analyzer, names []string) []*lint.Analyzer {
	byName := make(map[string]*lint.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name] = a
	}
	var out []*lint.Analyzer
	for _, n := range names {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			fatal(fmt.Errorf("unknown analyzer %q (use -list)", n))
		}
		out = append(out, a)
	}
	return out
}

func usage() {
	fmt.Fprintf(os.Stderr, "usage: p2plint [-only name,name] [-list] [packages...]\n\nAnalyzers:\n")
	for _, a := range lint.Analyzers() {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nSuppress with `//lint:allow <analyzer> <reason>` on or above the offending line.\n")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "p2plint:", err)
	os.Exit(1)
}
