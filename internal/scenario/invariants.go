package scenario

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"sgxp2p/internal/telemetry"
)

// mergeTraces validates every per-process trace, merges them into one
// globally time-ordered stream (merged.jsonl in outDir, the run's one
// event archive) and validates the merged stream too — the "trace
// consistency" invariant. Every problem names the file it is about, so a
// bad incarnation is identified as trace-<id>-<inc>.jsonl.
func mergeTraces(outDir string, nodes []*NodeOutcome) (string, InvariantResult) {
	inv := InvariantResult{Name: "trace-consistency"}
	var streams [][]telemetry.Event
	var problems []string
	problem := func(path string, err error) {
		problems = append(problems, fmt.Sprintf("%s: %v", filepath.Base(path), err))
	}
	for _, node := range nodes {
		for _, path := range node.TracePaths {
			f, err := os.Open(path)
			if err != nil {
				problem(path, err)
				continue
			}
			events, err := telemetry.ReadJSONL(f)
			f.Close()
			if err != nil {
				problem(path, err)
				continue
			}
			streams = append(streams, events)
		}
	}
	merged := telemetry.MergeEvents(streams...)
	mergedPath := filepath.Join(outDir, "merged.jsonl")
	f, err := os.Create(mergedPath)
	if err != nil {
		problem(mergedPath, err)
	} else {
		if werr := telemetry.WriteJSONL(f, merged); werr != nil {
			problem(mergedPath, werr)
		}
		f.Close()
		// Re-read through the strict validator: the merged stream must
		// satisfy the same schema + monotonicity contract p2ptrace -check
		// enforces.
		rf, rerr := os.Open(mergedPath)
		if rerr != nil {
			problem(mergedPath, rerr)
		} else {
			if _, verr := telemetry.ValidateJSONL(rf); verr != nil {
				problem(mergedPath, verr)
			}
			rf.Close()
		}
	}
	if len(problems) > 0 {
		inv.Detail = strings.Join(problems, "; ")
		return mergedPath, inv
	}
	inv.OK = true
	inv.Detail = fmt.Sprintf("%d events across %d traces", len(merged), len(streams))
	return mergedPath, inv
}

// checkCompletion asserts that every node expected to finish produced a
// result document covering its scheduled epochs.
func checkCompletion(nodes []*NodeOutcome, expectDone map[int]bool, params RunParams) []InvariantResult {
	inv := InvariantResult{Name: "completion", OK: true}
	var missing []string
	for _, node := range nodes {
		if !expectDone[node.ID] {
			continue
		}
		if node.FailDetail != "" {
			missing = append(missing, fmt.Sprintf("node %d failed: %s", node.ID, node.FailDetail))
			continue
		}
		if node.Result == nil {
			missing = append(missing, fmt.Sprintf("node %d wrote no result", node.ID))
			continue
		}
		want := params.Epochs - firstEpoch(node)
		if len(node.Result.Epochs) != want {
			missing = append(missing, fmt.Sprintf("node %d covered %d/%d epochs", node.ID, len(node.Result.Epochs), want))
		}
	}
	if len(missing) > 0 {
		inv.OK = false
		inv.Detail = strings.Join(missing, "; ")
	} else {
		inv.Detail = fmt.Sprintf("%d nodes completed their schedules", countExpected(expectDone))
	}
	return []InvariantResult{inv}
}

// firstEpoch is the first epoch a node's final incarnation covers: a
// relaunch's result document starts at the epoch it rejoined.
func firstEpoch(node *NodeOutcome) int {
	if node.Restarts > 0 && len(node.Result.Epochs) > 0 {
		return node.Result.Epochs[0].Epoch
	}
	return 0
}

// countExpected counts nodes expected to complete.
func countExpected(expectDone map[int]bool) int {
	count := 0
	ids := make([]int, 0, len(expectDone))
	for id := range expectDone {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		if expectDone[id] {
			count++
		}
	}
	return count
}

// checkDecisions asserts the Expect invariants over honest nodes'
// per-epoch decisions: agreement (same accepted flag and value),
// acceptance, and decision-round bounds.
func checkDecisions(nodes []*NodeOutcome, tc *Testcase, params RunParams) []InvariantResult {
	var out []InvariantResult
	exp := tc.Expect

	// Index honest decisions by epoch.
	type decision struct {
		node     int
		accepted bool
		value    string
		round    uint32
		ok       bool
	}
	byEpoch := make(map[int][]decision)
	for _, node := range nodes {
		if node.Byz || node.Result == nil {
			continue
		}
		for _, ep := range node.Result.Epochs {
			byEpoch[ep.Epoch] = append(byEpoch[ep.Epoch], decision{
				node: node.ID, accepted: ep.Accepted, value: ep.Value, round: ep.Round, ok: ep.OK,
			})
		}
	}
	epochs := make([]int, 0, len(byEpoch))
	for e := range byEpoch {
		epochs = append(epochs, e)
	}
	sort.Ints(epochs)

	if exp.Agreement {
		inv := InvariantResult{Name: "agreement", OK: true}
		var diverged []string
		for _, e := range epochs {
			ds := byEpoch[e]
			for _, d := range ds[1:] {
				if d.accepted != ds[0].accepted || d.value != ds[0].value {
					diverged = append(diverged, fmt.Sprintf(
						"epoch %d: node %d decided (%v,%s) but node %d (%v,%s)",
						e, d.node, d.accepted, short(d.value), ds[0].node, ds[0].accepted, short(ds[0].value)))
				}
			}
		}
		if len(diverged) > 0 {
			inv.OK = false
			inv.Detail = strings.Join(diverged, "; ")
		} else {
			inv.Detail = fmt.Sprintf("honest decisions identical across %d epochs", len(epochs))
		}
		out = append(out, inv)
	}

	if exp.Accepted {
		inv := InvariantResult{Name: "accepted", OK: true}
		var bottoms []string
		for _, e := range epochs {
			for _, d := range byEpoch[e] {
				if !d.ok || !d.accepted {
					bottoms = append(bottoms, fmt.Sprintf("epoch %d: node %d did not accept", e, d.node))
				}
			}
		}
		if len(bottoms) > 0 {
			inv.OK = false
			inv.Detail = strings.Join(bottoms, "; ")
		} else {
			inv.Detail = "every honest node accepted every epoch"
		}
		out = append(out, inv)
	}

	if exp.MaxRound > 0 || exp.MinRound > 0 {
		inv := InvariantResult{Name: "termination-round", OK: true}
		var violations []string
		lo, hi := uint32(0), uint32(0)
		first := true
		for _, e := range epochs {
			for _, d := range byEpoch[e] {
				if !d.accepted {
					continue
				}
				if first || d.round < lo {
					lo = d.round
				}
				if first || d.round > hi {
					hi = d.round
				}
				first = false
				if exp.MaxRound > 0 && int(d.round) > exp.MaxRound {
					violations = append(violations, fmt.Sprintf("epoch %d: node %d decided in round %d > %d", e, d.node, d.round, exp.MaxRound))
				}
				if exp.MinRound > 0 && int(d.round) < exp.MinRound {
					violations = append(violations, fmt.Sprintf("epoch %d: node %d decided in round %d < %d", e, d.node, d.round, exp.MinRound))
				}
			}
		}
		if len(violations) > 0 {
			inv.OK = false
			inv.Detail = strings.Join(violations, "; ")
		} else {
			inv.Detail = fmt.Sprintf("honest decision rounds in [%d, %d]", lo, hi)
		}
		out = append(out, inv)
	}
	return out
}

// short abbreviates a hex value for error messages.
func short(v string) string {
	if len(v) > 12 {
		return v[:12] + "…"
	}
	if v == "" {
		return "<none>"
	}
	return v
}
