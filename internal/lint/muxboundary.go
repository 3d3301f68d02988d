package lint

import (
	"go/ast"

	"sgxp2p/internal/lint/flow"
)

// InstanceScopedPackages are the import paths (and subtrees) whose code runs
// as multiplexed protocol instances: it is handed a runtime.Host capability
// and must stay portable between a dedicated runtime.Peer and a
// runtime.Instance slot under a Mux.
var InstanceScopedPackages = []string{
	"sgxp2p/internal/core",
}

// MuxboundaryAnalyzer forbids instance-scoped code from reaching around the
// Host capability surface. A protocol engine that grabs the node-scoped
// runtime objects (Peer, Mux, the Transport) or the link-cipher layer
// directly bypasses everything the multiplexed runtime centralizes per
// node: round-scoped batch coalescing, per-link AEAD sequence state, ACK
// tracking and instance-attributed telemetry. Such code happens to work
// when the engine owns the whole node and silently corrupts cipher
// sequences or splits batches once hundreds of instances share the links.
var MuxboundaryAnalyzer = &Analyzer{
	Name: "muxboundary",
	Doc: "forbids node-scoped runtime access (runtime.Peer/NewPeer/Transport/Mux/NewMux) and any " +
		"direct channel/xcrypto use in instance-scoped packages; protocol engines talk to the " +
		"runtime only through the runtime.Host capability they are constructed with",
	Packages: InstanceScopedPackages,
	Run:      runMuxboundary,
}

// nodeScopedRuntime are the internal/runtime symbols owned by the node, not
// the instance. Host, Protocol, Instance and the error values stay legal.
var nodeScopedRuntime = map[string]bool{
	"Peer":      true,
	"NewPeer":   true,
	"Transport": true,
	"Mux":       true,
	"NewMux":    true,
}

func runMuxboundary(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil {
				return true
			}
			// flow.PathMatches lets the testdata fakes match too.
			path := pkgPathOf(obj)
			switch {
			case flow.PathMatches(path, "internal/runtime"):
				if nodeScopedRuntime[obj.Name()] {
					pass.Reportf(sel.Pos(), "runtime.%s is node-scoped; instance code must use the runtime.Host capability it was constructed with", obj.Name())
				}
			case flow.PathIn(path, "internal/channel", "internal/xcrypto"):
				pass.Reportf(sel.Pos(), "%s.%s bypasses the runtime's per-link cipher state; instance code sends only through Host (Multicast/Send/SendAck)", obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
	return nil
}
