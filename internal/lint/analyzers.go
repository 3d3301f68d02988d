package lint

// DeterministicPackages are the import paths (and subtrees) whose non-test
// code must be bit-for-bit replayable: the protocol cores the chaos engine
// replays under fixed seeds, the virtual clock and simulated network that
// define the replayed timeline, the adversary whose choices are part of
// the schedule, and the deployment assembly that keys every stream they
// draw from. The live transports (tcpnet's real sockets, scenario's real
// child processes) are wall-clock by definition and nothing replays them,
// so they are not listed.
var DeterministicPackages = []string{
	"sgxp2p/internal/core",
	"sgxp2p/internal/chaos",
	"sgxp2p/internal/vclock",
	"sgxp2p/internal/simnet",
	"sgxp2p/internal/adversary",
	"sgxp2p/internal/runtime",
	"sgxp2p/internal/telemetry",
	"sgxp2p/internal/wire",
	"sgxp2p/internal/channel",
	"sgxp2p/internal/beacon",
	"sgxp2p/internal/deploy",
}

// Analyzers returns the full p2plint battery, one analyzer per invariant,
// in the order findings are attributed: the four per-package project
// invariants, the shadow pass adopted from x/tools (reimplemented locally
// in shadow.go), then the two interprocedural analyzers built on
// internal/lint/flow (module-wide). DESIGN.md §9 gives each one's invariant
// and the record that keeps it.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetrandAnalyzer,
		MaporderAnalyzer,
		DroperrAnalyzer,
		MuxboundaryAnalyzer,
		ShadowAnalyzer,
		SealflowAnalyzer,
		KeyleakAnalyzer,
	}
}
