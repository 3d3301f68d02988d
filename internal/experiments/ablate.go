package experiments

import (
	"fmt"

	"sgxp2p/internal/parallel"
)

// Ablate quantifies the design choices DESIGN.md calls out:
//
//  1. halt-on-divergence (P4): ERB with active ACK-driven churn versus the
//     same protocol with ACK tracking disabled (passive, like the prior
//     omission-model protocols the paper compares against in Appendix B).
//     Without P4, misbehaving nodes stay in the network and keep
//     receiving echoes and sending acknowledgments, so byzantine runs
//     carry more traffic and nobody is sanitized.
//  2. early stopping: honest-case decision rounds versus the worst-case
//     deadline t+2, per network size.
func Ablate(cfg Config) (*Table, error) {
	n := 128
	if cfg.Full {
		n = 256
	}
	f := n / 4

	t := &Table{
		ID:      "ablate",
		Title:   fmt.Sprintf("Ablations: halt-on-divergence and early stopping (N=%d, chain f=%d)", n, f),
		Columns: []string{"variant", "rounds", "Ex (MB)", "halted byz", "deadline rounds"},
		Notes: []string{
			"P4 off = ACK tracking disabled: misbehaving nodes are never churned, so the network keeps carrying their echo/ACK traffic",
			"early stopping: honest and chain runs decide in min{f+2, t+2} rounds, far below the t+2 deadline",
		},
	}
	deadline := (n-1)/2 + 2

	// The three variants are independent runs; sweep them in parallel.
	variants := []struct {
		label        string
		chainLen     int
		ackThreshold int
	}{
		{"honest, P4 on", 0, 0},
		{"chain, P4 on", f, 0},
		{"chain, P4 off", f, -1},
	}
	rows, err := parallel.Map(len(variants), func(i int) ([]string, error) {
		v := variants[i]
		run, rerr := runERBOpts(cfg, n, v.chainLen, v.ackThreshold)
		if rerr != nil {
			return nil, rerr
		}
		return []string{
			v.label, fmt.Sprint(run.MaxRound), fmtMB(float64(run.Bytes)),
			fmt.Sprint(run.HaltedByz), fmt.Sprint(deadline),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
