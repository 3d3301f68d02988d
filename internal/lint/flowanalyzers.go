package lint

import (
	"go/types"
	"strings"

	"sgxp2p/internal/lint/flow"
)

// The interprocedural analyzers (DESIGN.md §9). Both share one module-wide
// call graph (ModulePass.Graph) and run once per LintModule call.
//
// Package matching uses flow.PathMatches (exact path or "/"-suffix), so the
// same specs cover the real module ("sgxp2p/internal/wire") and the golden
// testdata fakes loaded under relative paths ("internal/wire").

// tcbPackages is the trusted computing base for key material: packages that
// hold and use keys by design. Key flows inside them are sanctioned; key
// material leaving them is a finding.
var tcbPackages = []string{
	"internal/enclave", "internal/xcrypto", "internal/channel",
}

// transportPackages move opaque byte payloads by design; sealflow checks
// their public Send surface from the outside rather than their internals.
var transportPackages = []string{
	"internal/tcpnet", "internal/simnet", "internal/adversary",
}

func fnPkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}

// sealflowSpec: payload plaintext (wire-encoded messages, opened envelopes)
// may only reach a network Send/Write sink after passing through
// channel.Link.SealEncodedAppend. Covers the unbatched path
// (AppendEncode → SealEncodedAppend → Transport.Send) and the batch
// outbox (AppendEncodeEntry or AppendBatchEntry → SealEncodedAppend →
// Transport.Send) alike.
var sealflowSpec = &flow.Spec{
	Kind:   "payload plaintext",
	Advice: "seal with channel.Link.SealEncodedAppend before the transport",
	SourceCall: func(fn *types.Func) bool {
		pkg := fnPkgPath(fn)
		switch {
		case flow.PathMatches(pkg, "internal/wire"):
			switch fn.Name() {
			case "Encode", "AppendEncode", "AppendEncodeEntry", "AppendBatchEntry":
				return true
			}
		case flow.PathMatches(pkg, "internal/channel"), flow.PathMatches(pkg, "internal/xcrypto"):
			return strings.HasPrefix(fn.Name(), "Open")
		}
		return false
	},
	SanitizerCall: func(fn *types.Func) bool {
		pkg := fnPkgPath(fn)
		if !flow.PathMatches(pkg, "internal/channel") && !flow.PathMatches(pkg, "internal/xcrypto") {
			return false
		}
		return strings.HasPrefix(fn.Name(), "Seal") || strings.HasPrefix(fn.Name(), "seal")
	},
	SinkArgs: func(fn *types.Func) ([]int, string, bool) {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return nil, "", false
		}
		pkg := fnPkgPath(fn)
		if fn.Name() == "Write" && pkg == "net" {
			return []int{0}, "net.Conn.Write", true
		}
		if fn.Name() != "Send" {
			return nil, "", false
		}
		if !flow.PathIn(pkg, "internal/runtime", "internal/tcpnet", "internal/simnet", "internal/adversary") {
			return nil, "", false
		}
		// The payload is the (last) []byte parameter; Send methods taking
		// a *wire.Message (runtime.Peer.Send) are the sealing boundary
		// itself, not a sink.
		payload := -1
		for i := 0; i < sig.Params().Len(); i++ {
			if s, ok := sig.Params().At(i).Type().(*types.Slice); ok {
				if b, ok := s.Elem().(*types.Basic); ok && b.Kind() == types.Byte {
					payload = i
				}
			}
		}
		if payload < 0 {
			return nil, "", false
		}
		return []int{payload}, "network sink " + flow.FuncLabel(fn), true
	},
	IgnorePkg: func(path string) bool {
		return flow.PathIn(path, transportPackages...)
	},
}

// keyleakSpec: key material (session keys, cipher state, private keys) must
// not flow into wire encoders, telemetry, or log/error formatting. The TCB
// packages are exempt from sink checks — using keys is their job — but
// their summaries still carry taint to callers.
var keyleakSpec = &flow.Spec{
	Kind:   "key material",
	Advice: "key material must not leave the enclave TCB (enclave/xcrypto/channel)",
	SourceType: func(t types.Type) bool {
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		n, ok := t.(*types.Named)
		if !ok || n.Obj().Pkg() == nil {
			return false
		}
		if !flow.PathMatches(n.Obj().Pkg().Path(), "internal/xcrypto") {
			return false
		}
		switch n.Obj().Name() {
		case "SessionKeys", "LinkCipher", "SigningKey", "KeyPair", "macState":
			// macState: the HMAC key with its pads absorbed forges tags
			// as well as the key does.
			return true
		}
		return false
	},
	SanitizerCall: func(fn *types.Func) bool {
		pkg := fnPkgPath(fn)
		if !flow.PathMatches(pkg, "internal/channel") && !flow.PathMatches(pkg, "internal/xcrypto") {
			return false
		}
		name := fn.Name()
		// Sanctioned key consumers: their outputs (ciphertext, signatures,
		// public halves, plaintext handed back to the owner) are not key
		// material.
		switch {
		case strings.HasPrefix(name, "Seal"), strings.HasPrefix(name, "seal"),
			strings.HasPrefix(name, "Open"), strings.HasPrefix(name, "open"):
			return true
		case name == "Sign", name == "Verify", name == "Public", name == "VerifyKey",
			name == "SealedSize", name == "NewLink":
			return true
		}
		return false
	},
	SinkArgs: func(fn *types.Func) ([]int, string, bool) {
		if !fn.Exported() {
			return nil, "", false
		}
		pkg := fnPkgPath(fn)
		switch {
		case flow.PathMatches(pkg, "internal/telemetry"):
			return nil, "telemetry (" + flow.FuncLabel(fn) + ")", true
		case flow.PathMatches(pkg, "internal/wire"):
			return nil, "wire encoder " + flow.FuncLabel(fn), true
		case pkg == "fmt" || pkg == "log" || pkg == "errors":
			return nil, "log/error formatting " + flow.FuncLabel(fn), true
		}
		return nil, "", false
	},
	IgnorePkg: func(path string) bool {
		return flow.PathIn(path, tcbPackages...)
	},
}

// SealflowAnalyzer proves the seal boundary: plaintext entering the runtime
// may only reach the network through channel sealing.
var SealflowAnalyzer = &Analyzer{
	Name: "sealflow",
	Doc:  "interprocedural taint: wire-encoded plaintext must pass channel.Seal* before any network Send/Write",
	RunModule: func(p *ModulePass) error {
		for _, f := range flow.Taint(p.Graph(), sealflowSpec) {
			p.Reportf(f.Pos, "%s", f.Message)
		}
		return nil
	},
}

// KeyleakAnalyzer proves key confinement: key material never reaches wire
// encoders, telemetry, logs, or exported returns outside the TCB.
var KeyleakAnalyzer = &Analyzer{
	Name: "keyleak",
	Doc:  "interprocedural taint: session keys, cipher state and private keys must stay inside the enclave TCB",
	RunModule: func(p *ModulePass) error {
		g := p.Graph()
		findings, sums := flow.TaintSummaries(g, keyleakSpec)
		for _, f := range findings {
			p.Reportf(f.Pos, "%s", f.Message)
		}
		// Exported-return check: outside the TCB, no exported function may
		// return a value carrying key material.
		for _, n := range g.Nodes {
			if n.Obj == nil || !n.Obj.Exported() || flow.PathIn(n.Pkg.Path, tcbPackages...) {
				continue
			}
			sum := sums[n]
			if sum == nil || n.Decl == nil {
				continue
			}
			for r := 0; r < n.Sig.Results().Len(); r++ {
				for _, src := range sum.ResultSources(r) {
					p.Reportf(n.Decl.Name.Pos(), "key material (%s) flows into exported return of %s; key material must not leave the enclave TCB", src, n.Name)
				}
			}
		}
		return nil
	},
}
