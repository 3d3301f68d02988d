// Package flow is the interprocedural layer under p2plint's seal-boundary
// analyzers (DESIGN.md §9): a module-wide call graph over go/ast + go/types
// with per-function summaries computed bottom-up over strongly connected
// components. It stays on the Go standard library, like the rest of
// internal/lint — no SSA, no x/tools.
//
// The package provides two building blocks:
//
//   - Graph (callgraph.go): every function declaration, method and function
//     literal in the module, with call edges. Dynamic calls are resolved
//     conservatively: interface method calls fan out to every in-module type
//     that implements the interface, and calls through function values fan
//     out to every address-taken function or method value with a matching
//     signature.
//   - the taint engine (taint.go): given a Spec naming taint sources,
//     sanitizers and sinks, it computes per-function summaries (which
//     parameters reach which sinks/results) in bottom-up SCC order and
//     reports every source-to-sink path as a Finding at the point where the
//     taint was introduced into the sink-reaching flow.
//
// Analyzers built on this package live in internal/lint (sealflow, keyleak)
// and translate Findings into lint.Diagnostics.
package flow

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// PackageInfo is one loaded, type-checked package handed to the engine. It
// mirrors the fields of lint.Package without importing it (internal/lint
// imports flow, not the other way around).
type PackageInfo struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// PathMatches reports whether a package import path denotes the
// module-relative package pkg ("internal/channel"): equal or ending in
// "/"+pkg. Testdata fakes loaded under relative paths match the same way
// the real module packages do.
func PathMatches(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}

// PathIn reports whether path matches any of pkgs (see PathMatches).
func PathIn(path string, pkgs ...string) bool {
	for _, p := range pkgs {
		if PathMatches(path, p) {
			return true
		}
	}
	return false
}

// recvTypeName returns the name of a method's receiver type with pointers
// stripped, or "" for plain functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}
