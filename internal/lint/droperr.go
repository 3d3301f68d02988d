package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// DroperrAnalyzer flags dropped results whose loss the caller cannot see
// afterwards. Three families, one rule:
//
//   - The enclave-boundary and wire APIs. A Seal/Open failure is the
//     blinded channel refusing to cross the enclave boundary (tampered
//     ciphertext, a halted enclave, a replay) and an Encode/Decode failure
//     is a malformed frame; ignoring either silently converts a detected
//     attack into an omission the protocol never accounts for, voiding the
//     P1/P2 integrity argument. Send/Multicast errors carry the
//     halt-on-divergence signal (P4): a sender that ignores them keeps
//     acting after it should have churned itself out.
//   - The telemetry export and check APIs. An export is usually the last
//     thing a run does — the trace or metric snapshot IS the run's
//     evidence — so a swallowed ExportJSONL/DumpFlight error leaves a
//     missing artifact that reads as "the run produced nothing"; ignoring
//     ValidateJSONL/DiffLines turns a failed determinism check into a pass.
//   - BeginSpan, whatever its result type: its Span must reach a Finish
//     call, or the hop silently vanishes from every reconstructed causal
//     chain.
//
// Flagged forms, in non-test code module-wide:
//
//	link.Seal(msg)                   // ExprStmt: all results dropped
//	v, _ := wire.Decode(b)           // guarded position assigned to _
//	go enc.Encode(x) / defer f.Open() // results unobservable
//
// Deliberate drops carry //lint:allow droperr <reason>.
var DroperrAnalyzer = &Analyzer{
	Name: "droperr",
	Doc: "flags dropped or _-discarded errors from Seal*/Open*/Encode*/Decode*, the channel/wire send " +
		"APIs and the telemetry Export*/Dump*/ValidateJSONL/DiffLines calls, and discarded BeginSpan " +
		"results (they signal tampering, replay or required self-halt, or hold the run's only evidence)",
	Run: runDroperr,
}

const (
	boundaryReason = "tampering/replay/halt signals must be handled"
	evidenceReason = "a failed export/dump destroys the run's observability evidence"
	spanReason     = "the hop is never finished: unfinished spans vanish from every reconstructed causal chain"
)

// guardedPrefixes maps each guarded callee-name prefix to the consequence
// its findings name. The list is name-based on purpose: it catches the
// project's Sealer/Link/Message/Tracer APIs as well as stdlib encoders
// feeding the wire, without needing a registry of types. No prefix is a
// prefix of another, so at most one entry matches a name.
var guardedPrefixes = []struct{ prefix, reason string }{
	{"Seal", boundaryReason},
	{"Open", boundaryReason},
	{"Encode", boundaryReason},
	{"Decode", boundaryReason},
	{"AppendEncode", boundaryReason},
	{"Send", boundaryReason},
	{"Multicast", boundaryReason},
	{"Unicast", boundaryReason},
	{"Export", evidenceReason},
	{"Dump", evidenceReason},
	{"ValidateJSONL", evidenceReason},
	{"DiffLines", evidenceReason},
	{"WriteTimeline", evidenceReason},
}

func runDroperr(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.ExprStmt:
				if call, ok := st.X.(*ast.CallExpr); ok {
					reportDropped(pass, call, "result dropped")
				}
			case *ast.GoStmt:
				reportDropped(pass, st.Call, "result unobservable in go statement")
			case *ast.DeferStmt:
				reportDropped(pass, st.Call, "result unobservable in deferred call")
			case *ast.AssignStmt:
				if len(st.Rhs) != 1 {
					return true
				}
				call, ok := st.Rhs[0].(*ast.CallExpr)
				if !ok {
					return true
				}
				what, idx, reason := guardedResults(pass, call)
				for _, i := range idx {
					if i >= len(st.Lhs) {
						continue
					}
					if id, ok := st.Lhs[i].(*ast.Ident); ok && id.Name == "_" {
						pass.Reportf(st.Pos(), "%s discarded into _ (%s)", what, reason)
					}
				}
			}
			return true
		})
	}
	return nil
}

func reportDropped(pass *Pass, call *ast.CallExpr, how string) {
	if what, idx, reason := guardedResults(pass, call); len(idx) > 0 {
		pass.Reportf(call.Pos(), "%s: %s (%s)", what, how, reason)
	}
}

// guardedResults names what call returns that must not be dropped ("error
// from Seal", "Span from BeginSpan"), the result positions holding it, and
// the consequence of dropping it. idx is empty for unguarded calls.
func guardedResults(p *Pass, call *ast.CallExpr) (what string, idx []int, reason string) {
	name := calleeName(call)
	if name == "BeginSpan" {
		return "Span from BeginSpan", []int{0}, spanReason
	}
	for _, g := range guardedPrefixes {
		if strings.HasPrefix(name, g.prefix) {
			reason = g.reason
			break
		}
	}
	if reason == "" {
		return "", nil, ""
	}
	sig, ok := p.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok {
		return "", nil, "" // conversion or builtin
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if isErrorType(sig.Results().At(i).Type()) {
			idx = append(idx, i)
		}
	}
	return "error from " + name, idx, reason
}

// calleeName extracts the called function or method name, or "" when the
// callee is not a simple name (function values, conversions).
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

func isErrorType(t types.Type) bool {
	return t.String() == "error" && types.IsInterface(t)
}
