package sgxp2p_test

import (
	"os"
	"regexp"
	"strings"
	"testing"

	"sgxp2p/internal/lint"
)

// TestDocsNameOnlyThingsThatExist scans the documents that tell a reader
// what to run for make targets, BENCH_*.json snapshots, cmd/ directories
// and scenarios/ manifests, and fails on any that is not in the tree — so
// retiring a harness or a manifest format cannot leave instructions for
// it behind. Names retired with the
// second telemetry path (the runner's streamed archive, the invariant that
// compared it with the dumps, the tracer's ring option) may not reappear,
// nor may the lane executor's event-count hand-off rule, which a measured
// one replaced, nor the option and the cancellable simulator events that
// PR 22 deleted for want of a caller, nor the setup phase that opened every
// channel before round 1 (a pair's channel opens at its first frame), nor
// p2pnode's standalone-mode flags and simnet's latency option, both gone,
// nor the live chain's own parameter and flag and the live fig2a bench
// mode, which the fault schedule's flips and a manifest run replaced, nor
// the slow-link spec form that -slow's one duration replaced, nor the
// observation knobs and the separate live-plane smoke that went when the
// control connection became a live node's one telemetry sink.
// A //lint:allow or `p2plint -only` in a document, or the Makefile, must
// name an analyzer in lint.Analyzers(). Retired analyzers and p2plint
// flags, and the retired Appendix G/H packages, examples and their API,
// may be named only on a line that says they were retired (DESIGN.md §9's
// and §3's verdict rows). The three documents also have a line budget: one
// may shrink, and what is added to it has to come out of it.
func TestDocsNameOnlyThingsThatExist(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`).FindAllSubmatch(makefile, -1) {
		targets[string(m[1])] = true
	}
	exists := func(path string) bool {
		_, err := os.Stat(path)
		return err == nil
	}
	checks := []struct {
		what string
		re   *regexp.Regexp // group 1 is the name
		ok   func(name string) bool
	}{
		// In backticks, or opening a line of a fenced shell block.
		{"make target", regexp.MustCompile("(?m)(?:`|^)make ([a-z][a-z0-9-]*)"), func(n string) bool { return targets[n] }},
		{"snapshot", regexp.MustCompile(`(BENCH_\w+\.json)`), exists},
		{"command", regexp.MustCompile(`(cmd/[a-z0-9]+)`), exists},
		{"manifest", regexp.MustCompile(`(scenarios/[\w.-]+\.\w+)`), exists},
		{"retired name", regexp.MustCompile(`(streamed\.jsonl|stream-parity|Options\.Ring)`), func(string) bool { return false }},
		{"retired rule", regexp.MustCompile(`(minParallelEvents|256 events)`), func(string) bool { return false }},
		{"retired name", regexp.MustCompile(`(Options\.Program|Sim\.Cancel|vclock\.Event|Sim\.Step|Sim\.At\b|Sim\.After\b)`), func(string) bool { return false }},
		{"retired phase", regexp.MustCompile(`(establish every peer's N-1 blinded channels)`), func(string) bool { return false }},
		{"retired option", regexp.MustCompile(`(start-at-ms|demo-secret|no-preflight|connect-timeout|BaseLatency|all=60ms)`), func(string) bool { return false }},
		{"retired name", regexp.MustCompile(`(chain_len|chain-len|bench-n|SimnetERBReference)`), func(string) bool { return false }},
		{"retired name", regexp.MustCompile(`(obs-live-smoke|result-out|probe-interval)`), func(string) bool { return false }},
	}
	analyzers := map[string]bool{}
	for _, a := range lint.Analyzers() {
		analyzers[a.Name] = true
	}
	analyzerRef := regexp.MustCompile(`(?:lint:allow|p2plint -only) (\w+)`)
	retired := regexp.MustCompile("lockorder|nilness|`lockstep`|sealerr|-baseline|p2plint -json|" +
		`PuzzleDifficulty|DeriveKey|NewKeySchedule|NewBalancer|NewWalker|` +
		`internal/(sybil|keygen|loadbal|randomwalk)\b|examples/(loadbalance|randomwalk)\b`)
	budget := map[string]int{"README.md": 226, "DESIGN.md": 1323, "EXPERIMENTS.md": 1907}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md", "Makefile"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(text), "\n"); budget[doc] > 0 && lines > budget[doc] {
			t.Errorf("%s is %d lines, over its budget of %d", doc, lines, budget[doc])
		}
		for _, c := range checks {
			for _, m := range c.re.FindAllSubmatch(text, -1) {
				if name := string(m[1]); !c.ok(name) {
					t.Errorf("%s names %s %q, which does not exist", doc, c.what, name)
				}
			}
		}
		for i, line := range strings.Split(string(text), "\n") {
			for _, m := range analyzerRef.FindAllStringSubmatch(line, -1) {
				if !analyzers[m[1]] {
					t.Errorf("%s:%d names analyzer %q, which is not in lint.Analyzers()", doc, i+1, m[1])
				}
			}
			if m := retired.FindString(line); m != "" && !strings.Contains(line, "retired") {
				t.Errorf("%s:%d names %q, which was retired", doc, i+1, m)
			}
		}
	}
}
