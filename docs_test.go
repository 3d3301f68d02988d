package sgxp2p_test

import (
	"os"
	"regexp"
	"testing"
)

// TestDocsNameOnlyThingsThatExist scans the documents that tell a reader
// what to run for make targets, BENCH_*.json snapshots and cmd/
// directories, and fails on any that is not in the tree — so retiring a
// harness cannot leave instructions for it behind. Names retired with the
// second telemetry path (the runner's streamed archive, the invariant that
// compared it with the dumps, the tracer's ring option) may not reappear,
// nor may the lane executor's event-count hand-off rule, which a measured
// one replaced, nor the option and the cancellable simulator events that
// PR 22 deleted for want of a caller, nor the setup phase that opened every
// channel before round 1 (a pair's channel opens at its first frame).
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
		{"retired name", regexp.MustCompile(`(streamed\.jsonl|stream-parity|Options\.Ring)`), func(string) bool { return false }},
		{"retired rule", regexp.MustCompile(`(minParallelEvents|256 events)`), func(string) bool { return false }},
		{"retired name", regexp.MustCompile(`(Options\.Program|Sim\.Cancel|vclock\.Event|Sim\.Step|Sim\.At\b|Sim\.After\b)`), func(string) bool { return false }},
		{"retired phase", regexp.MustCompile(`(establish every peer's N-1 blinded channels)`), func(string) bool { return false }},
	}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range checks {
			for _, m := range c.re.FindAllSubmatch(text, -1) {
				if name := string(m[1]); !c.ok(name) {
					t.Errorf("%s names %s %q, which does not exist", doc, c.what, name)
				}
			}
		}
	}
}
