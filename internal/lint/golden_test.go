package lint

import "testing"

// The golden tests run every analyzer over its testdata tree through
// LintModule, the same driver p2plint uses, so suppression directives and
// malformed- and stale-directive reporting are exercised end to end. Each
// testdata file deliberately seeds violations next to the legal idioms; see
// testutil_test.go for the // want comment syntax.

func TestDetrandGolden(t *testing.T)  { runGolden(t, "detrand", DetrandAnalyzer) }
func TestMaporderGolden(t *testing.T) { runGolden(t, "maporder", MaporderAnalyzer) }
func TestDroperrGolden(t *testing.T)  { runGolden(t, "droperr", DroperrAnalyzer) }

// TestMuxboundaryGolden additionally resolves fixture imports across
// packages: the testdata package imports fake internal/runtime,
// internal/channel and internal/xcrypto subpackages by module path.
func TestMuxboundaryGolden(t *testing.T) { runGolden(t, "muxboundary", MuxboundaryAnalyzer) }
func TestShadowGolden(t *testing.T)      { runGolden(t, "shadow", ShadowAnalyzer) }

// TestDirectiveGolden exercises the suppression machinery itself: reasoned
// directives silence findings, reasonless or unknown-analyzer directives are
// findings of their own and suppress nothing.
func TestDirectiveGolden(t *testing.T) { runGolden(t, "directive", DetrandAnalyzer) }

// The interprocedural analyzers lint a testdata tree with local internal/*
// fakes, so sources/sanitizers/sinks cross package boundaries exactly as in
// the real module, and a helper package (overlay) puts a sink behind a call
// into another package. Each fixture pairs violations (including a
// deliberate plaintext-to-tcpnet leak) with the legal path next to it.
func TestSealflowGolden(t *testing.T) { runGolden(t, "sealflow", SealflowAnalyzer) }
func TestKeyleakGolden(t *testing.T)  { runGolden(t, "keyleak", KeyleakAnalyzer) }

// TestFlowGoldenThroughDependencies lints each interprocedural fixture's
// root package alone, as `p2plint ./internal/deploy` lints one package of
// the module: its helpers are then dependencies only, and a leak through
// one must still be reported at the call, while a leak inside one is not
// reported at all.
func TestFlowGoldenThroughDependencies(t *testing.T) {
	t.Run("sealflow", func(t *testing.T) { runGoldenPattern(t, "./sealflow", SealflowAnalyzer) })
	t.Run("keyleak", func(t *testing.T) { runGoldenPattern(t, "./keyleak", KeyleakAnalyzer) })
}

// TestStaleLintGolden runs the full battery so the stale-suppression check
// judges directives for analyzers that actually ran: a live suppression
// stays silent, a dead one is reported.
func TestStaleLintGolden(t *testing.T) { runGolden(t, "stalelint", Analyzers()...) }
