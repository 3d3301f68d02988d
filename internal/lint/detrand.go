package lint

import (
	"go/ast"
	"go/types"
)

// DetrandAnalyzer forbids host time and unseeded randomness in the
// deterministic packages: the seeded chaos engine replays schedules and
// compares trace fingerprints byte-for-byte (DESIGN.md §8), and the paper's
// F2 (unbiased enclave randomness) and P1 (execution integrity) arguments
// assume protocol code draws entropy only from the enclave. Its P5 half
// (lockstep execution) is the same rule seen from the scheduler: every
// protocol action happens at a round boundary of the shared virtual clock,
// so a time.Sleep or raw timer ties progress to host time — under the
// simulator it never fires (virtual time does not advance while sleeping),
// and live it desynchronizes rounds across nodes.
//
// Flagged in scoped packages (non-test code):
//   - time.Now, time.Since, time.Until — wall clock; use the virtual clock
//     (vclock.Clock.Now / runtime transport Now) instead.
//   - time.Sleep, After, AfterFunc, Tick, NewTimer, NewTicker — OS timers;
//     schedule on the virtual clock (vclock or the transport's After).
//   - every package-level math/rand and math/rand/v2 function (Int, Intn,
//     Float64, Perm, Shuffle, Seed, Read, ...) — process-global, unseeded
//     state; construct a seeded *rand.Rand or use enclave randomness
//     (enclave.ReadRand / RandomValue) instead.
//   - math/rand's v1 constructors (New, NewSource, NewZipf): a v1 source
//     costs 4.9 KB and microseconds to seed, and one stream shared by
//     several jobs couples them; key a math/rand/v2 stream by what it is
//     for (internal/keyed) instead.
//   - math/rand/v2's seeded constructors (NewChaCha8, NewPCG, New over
//     them) and methods on the seeded value stay legal: that is the form
//     every deterministic component uses.
var DetrandAnalyzer = &Analyzer{
	Name: "detrand",
	Doc: "forbids wall-clock reads, OS timers, global/unseeded math/rand and math/rand's v1 constructors in deterministic packages " +
		"(use the virtual clock and its scheduling, a keyed math/rand/v2 stream, or enclave randomness)",
	Packages: DeterministicPackages,
	Run:      runDetrand,
}

const (
	wallClock = "reads the wall clock in a deterministic package; use the virtual clock (vclock/transport Now)"
	osTimer   = "schedules on the OS timer in round-driven code; use vclock scheduling (Clock.At/After or the transport's After)"
)

// hostTime maps each time function that reads the host clock or schedules
// on the OS timer wheel to the rest of its finding.
var hostTime = map[string]string{
	"Now":       wallClock,
	"Since":     wallClock,
	"Until":     wallClock,
	"Sleep":     osTimer,
	"After":     osTimer,
	"AfterFunc": osTimer,
	"Tick":      osTimer,
	"NewTimer":  osTimer,
	"NewTicker": osTimer,
}

func runDetrand(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			obj := pass.TypesInfo.Uses[sel.Sel]
			if obj == nil || !isFunc(obj) {
				return true
			}
			switch pkgPathOf(obj) {
			case "time":
				if why, ok := hostTime[obj.Name()]; ok {
					pass.Reportf(sel.Pos(), "time.%s %s", obj.Name(), why)
				}
			case "math/rand", "math/rand/v2":
				switch obj.Name() {
				case "New", "NewSource", "NewZipf", "NewChaCha8", "NewPCG":
					if pkgPathOf(obj) == "math/rand" {
						pass.Reportf(sel.Pos(), "rand.%s builds a math/rand v1 generator; key a math/rand/v2 stream by what it is for (internal/keyed)", obj.Name())
					}
					// math/rand/v2's seeded constructors are the sanctioned form.
				default:
					pass.Reportf(sel.Pos(), "global rand.%s uses process-wide unseeded state; use a seeded *rand.Rand or enclave randomness", obj.Name())
				}
			}
			return true
		})
	}
	return nil
}

// pkgPathOf returns the import path of the package an object belongs to, or
// "" for builtins and package names themselves.
func pkgPathOf(obj types.Object) string {
	if _, ok := obj.(*types.PkgName); ok || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// isFunc reports whether obj is a package-level function — methods (e.g.
// (*rand.Rand).Intn on a seeded generator) are exactly the sanctioned form
// and must not match.
func isFunc(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	return ok && sig.Recv() == nil
}
