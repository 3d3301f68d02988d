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

// TestMuxboundaryGolden additionally exercises LoadDirAll's local-fake
// importer: the testdata package imports fake internal/runtime,
// internal/channel and internal/xcrypto subpackages.
func TestMuxboundaryGolden(t *testing.T) { runGolden(t, "muxboundary", MuxboundaryAnalyzer) }
func TestShadowGolden(t *testing.T)      { runGolden(t, "shadow", ShadowAnalyzer) }

// TestDirectiveGolden exercises the suppression machinery itself: reasoned
// directives silence findings, reasonless or unknown-analyzer directives are
// findings of their own and suppress nothing.
func TestDirectiveGolden(t *testing.T) { runGolden(t, "directive", DetrandAnalyzer) }

// The interprocedural analyzers lint a testdata tree with local internal/*
// fakes, so sources/sanitizers/sinks cross package boundaries exactly as in
// the real module. Each fixture pairs violations (including a deliberate
// plaintext-to-tcpnet leak) with the sealed legal path.
func TestSealflowGolden(t *testing.T) { runGolden(t, "sealflow", SealflowAnalyzer) }
func TestKeyleakGolden(t *testing.T)  { runGolden(t, "keyleak", KeyleakAnalyzer) }

// TestStaleLintGolden runs the full battery so the stale-suppression check
// judges directives for analyzers that actually ran: a live suppression
// stays silent, a dead one is reported.
func TestStaleLintGolden(t *testing.T) { runGolden(t, "stalelint", Analyzers()...) }
