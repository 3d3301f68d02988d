package experiments

import (
	"fmt"

	"sgxp2p/internal/chaos"
	"sgxp2p/internal/parallel"
)

// Chaos sweeps the deterministic fault-schedule engine (internal/chaos):
// each row is one seeded schedule — crash–restart churn, partitions,
// behavior flips — replayed against a single ERB broadcast or a basic
// beacon epoch, with the paper's invariants checked over the honest
// nodes. The trace column is the simulator's interleaving fingerprint:
// rerunning any row's seed reproduces it bit-for-bit, which is what
// `-chaos-seed` is for.
//
// The optimized beacon is deliberately absent from the sweep: generated
// schedules include selective omission, which splits its (unreliably
// broadcast) round-1 cluster announcements — the known Algorithm 6 gap
// pinned in internal/chaos.
func Chaos(cfg Config) (*Table, error) {
	type job struct {
		proto string
		n, t  int
		seed  int64
	}
	sizes := []int{5, 9, 17}
	seeds := 8
	if cfg.Full {
		seeds = 24
	}
	var jobs []job
	addSeed := func(seed int64) {
		for _, n := range sizes {
			jobs = append(jobs, job{"erb", n, (n - 1) / 2, seed})
		}
		for _, n := range []int{5, 9} {
			jobs = append(jobs, job{"erng", n, (n - 1) / 2, seed})
		}
	}
	if cfg.ChaosSeed != 0 {
		// Single-seed reproduction mode: replay one schedule everywhere.
		addSeed(cfg.ChaosSeed)
	} else {
		for s := 1; s <= seeds; s++ {
			addSeed(cfg.Seed + int64(s))
		}
	}

	type result struct {
		o       *chaos.Outcome
		verdict string
		detail  string
	}
	results, err := parallel.Map(len(jobs), func(i int) (result, error) {
		j := jobs[i]
		var o *chaos.Outcome
		var runErr, check error
		if j.proto == "erb" {
			o, runErr = chaos.RunERB(j.seed, j.n, j.t)
			if runErr == nil {
				check = chaos.CheckERB(o)
			}
		} else {
			o, runErr = chaos.RunERNG(j.seed, j.n, j.t, false)
			if runErr == nil {
				check = chaos.CheckERNG(o)
			}
		}
		if runErr != nil {
			return result{}, fmt.Errorf("chaos %s N=%d seed=%d: %w", j.proto, j.n, j.seed, runErr)
		}
		r := result{o: o, verdict: "ok"}
		if check != nil {
			r.verdict = "VIOLATED"
			r.detail = check.Error()
		}
		return r, nil
	})
	if err != nil {
		return nil, err
	}

	t := &Table{
		ID:      "chaos",
		Title:   "seeded fault schedules (crash-restart, partitions, flips) vs ERB and the basic beacon",
		Columns: []string{"proto", "seed", "N", "t", "f", "schedule", "verdict", "round", "trace"},
		Notes: []string{
			"each seed compiles to a deterministic schedule; same seed => identical trace fingerprint",
			"reproduce a row with: p2pexp -experiment chaos -chaos-seed <seed>",
		},
	}
	violations := 0
	for i, r := range results {
		j := jobs[i]
		round := "-"
		for _, no := range r.o.Nodes {
			if no.Honest && no.Decided {
				round = fmt.Sprintf("%d", no.Round)
				break
			}
		}
		t.Rows = append(t.Rows, []string{
			j.proto,
			fmt.Sprintf("%d", j.seed),
			fmt.Sprintf("%d", j.n),
			fmt.Sprintf("%d", j.t),
			fmt.Sprintf("%d", r.o.F),
			r.o.Schedule,
			r.verdict,
			round,
			fmt.Sprintf("%016x", r.o.TraceHash),
		})
		if r.verdict != "ok" {
			violations++
			t.Notes = append(t.Notes, r.detail)
		}
	}
	if violations > 0 {
		t.Notes = append(t.Notes, fmt.Sprintf("%d of %d runs violated an invariant", violations, len(results)))
	}
	return t, nil
}
