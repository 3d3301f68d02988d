package experiments

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sgxp2p/internal/deploy"
	"sgxp2p/internal/parallel"
)

// sizesUpTo returns powers of two 2^lo..2^hi.
func sizesUpTo(lo, hi int) []int {
	var out []int
	for e := lo; e <= hi; e++ {
		out = append(out, 1<<e)
	}
	return out
}

// Fig2a reproduces Figure 2a: ERB termination time (honest initiator)
// versus network size, against the one-round time. Expected shape: flat
// at about two rounds, with a rise once the shared link saturates.
func Fig2a(cfg Config) (*Table, error) {
	hi := 8
	if cfg.Full {
		hi = 11
	}
	t := &Table{
		ID:      "fig2a",
		Title:   "ERB termination time vs number of peers (honest)",
		Columns: []string{"N", "one round (s)", "ERB termination (s)", "rounds"},
		Notes: []string{
			"paper: termination ~ 2 rounds for an honest initiator, slight rise at large N from the shared 128 MB/s link",
		},
	}
	sizes := sizesUpTo(1, hi)
	rows, err := parallel.Map(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		run, rerr := runERB(cfg, n, 0)
		if rerr != nil {
			return nil, fmt.Errorf("fig2a N=%d: %w", n, rerr)
		}
		if !run.Accepted {
			return nil, fmt.Errorf("fig2a N=%d: honest run did not accept", n)
		}
		return []string{
			fmt.Sprint(n),
			fmtDuration(run.OneRound),
			fmtDuration(run.Termination),
			fmt.Sprint(run.MaxRound),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// erngRun is the measured outcome of one ERNG execution.
type erngRun struct {
	Termination time.Duration
	OneRound    time.Duration
	Messages    uint64
	Bytes       uint64
	OK          bool
}

// runBasicERNG executes one unoptimized ERNG epoch on a fresh deployment.
func runBasicERNG(cfg Config, n int) (erngRun, error) {
	byz := (n - 1) / 2
	d, err := paperDeployment(cfg, n, byz, erngBasicPeakBytes(n))
	if err != nil {
		return erngRun{}, err
	}
	// Honest epochs settle within a few rounds (early finish); skip the
	// idle tail of the t+2 window.
	d.Sim.SetDeadline(8 * d.RoundDuration())
	run, err := measureEpoch(d, byz, false)
	if err == nil && !run.OK {
		err = errors.New("bottom in honest ERNG")
	}
	return run, err
}

// runOptERNG runs k optimized ERNG epochs (auto mode: the paper's 2N/3
// fallback below the sampled threshold) on one deployment and reports
// their mean traffic per epoch, OK when every epoch was. One epoch's
// count follows its cluster draw: fitted over single epochs at N = 8, 16,
// 32, the growth exponent ranged from 2.1 to 3.6 across seeds 1–12, over
// means of 32 epochs from 2.80 to 3.00 (Algorithm 3: 3.07).
func runOptERNG(cfg Config, n, k int) (erngRun, error) {
	byz := n / 3
	d, err := paperDeployment(cfg, n, byz, erngOptPeakBytes(n))
	if err != nil {
		return erngRun{}, err
	}
	mean := erngRun{OK: true}
	for range k {
		d.Net.ResetTraffic()
		run, rerr := measureEpoch(d, byz, true)
		if rerr != nil {
			return erngRun{}, rerr
		}
		mean.Messages += run.Messages
		mean.Bytes += run.Bytes
		mean.OK = mean.OK && run.OK
	}
	mean.Messages /= uint64(k)
	mean.Bytes /= uint64(k)
	return mean, nil
}

// measureEpoch runs one honest ERNG epoch over d and measures it; OK is
// false when any node output bottom.
func measureEpoch(d *deploy.Deployment, t int, optimized bool) (erngRun, error) {
	protos, err := d.Epoch(t, optimized, nil)
	if err != nil {
		return erngRun{}, err
	}
	out := erngRun{OneRound: d.RoundDuration(), OK: true}
	for i, pr := range protos {
		res, ok := pr.Result()
		if !ok {
			return erngRun{}, fmt.Errorf("node %d undecided in honest ERNG", i)
		}
		out.OK = out.OK && res.OK
		if res.At > out.Termination {
			out.Termination = res.At
		}
	}
	tr := d.Net.Traffic()
	out.Messages = tr.Messages
	out.Bytes = tr.Bytes
	return out, nil
}

// Fig2b reproduces Figure 2b: unoptimized-ERNG termination versus network
// size. Expected shape: flat while the link keeps up (all broadcasts
// accept within ~2 rounds), then rising as the N^3 message volume
// saturates the shared link and stretches the effective round time.
func Fig2b(cfg Config) (*Table, error) {
	hi := 7
	if cfg.Full {
		hi = 8
	}
	t := &Table{
		ID:      "fig2b",
		Title:   "ERNG termination time vs number of peers (honest, unoptimized)",
		Columns: []string{"N", "one round (s)", "ERNG termination (s)"},
		Notes: []string{
			"paper: flat up to ~2^7, then rising to ~10^3 s at 2^9 due to the shared-link bottleneck",
			"paper sweeps to 2^9; -full here sweeps to 2^8 to keep the event count tractable (same shape)",
		},
	}
	sizes := sizesUpTo(2, hi)
	rows, err := parallel.Map(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		run, rerr := runBasicERNG(cfg, n)
		if rerr != nil {
			return nil, fmt.Errorf("fig2b N=%d: %w", n, rerr)
		}
		return []string{
			fmt.Sprint(n),
			fmtDuration(run.OneRound),
			fmtDuration(run.Termination),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// byzFractions returns the byzantine fractions of Figures 2c/3c for a
// network of size n: 1/n, 2/n, 4/n, ... up to 1/4.
func byzFractions(n int) []int {
	var counts []int
	for f := 1; f <= n/4; f *= 2 {
		counts = append(counts, f)
	}
	return counts
}

// Fig2c reproduces Figure 2c: ERB termination versus the number of
// byzantine nodes actually misbehaving, under the worst-case chain
// strategy of Section 6.3. Expected shape: linear in f (termination ~
// (f+2) rounds), two orders of magnitude above honest at f = N/4.
func Fig2c(cfg Config) (*Table, error) {
	n := 128
	if cfg.Full {
		n = 512
	}
	t := &Table{
		ID:      "fig2c",
		Title:   fmt.Sprintf("ERB termination vs byzantine fraction (chain strategy, N=%d)", n),
		Columns: []string{"byz fraction", "f", "termination (s)", "rounds", "halted byz"},
		Notes: []string{
			"paper (N=512): 4 s honest rising linearly to 389 s at 1/4; every chain node is churned out by P4",
		},
	}
	fractions := byzFractions(n)
	rows, err := parallel.Map(len(fractions), func(i int) ([]string, error) {
		f := fractions[i]
		run, rerr := runERB(cfg, n, f)
		if rerr != nil {
			return nil, fmt.Errorf("fig2c f=%d: %w", f, rerr)
		}
		if !run.Accepted {
			return nil, fmt.Errorf("fig2c f=%d: honest nodes did not accept", f)
		}
		return []string{
			fmt.Sprintf("1/%d", n/f),
			fmt.Sprint(f),
			fmtDuration(run.Termination),
			fmt.Sprint(run.MaxRound),
			fmt.Sprint(run.HaltedByz),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Fig3a reproduces Figure 3a: ERB traffic versus network size,
// experimental next to the theoretical 2N^2-envelope curve. Expected
// shape: quadratic, hundreds of MB at 2^10 (the paper reports 277 MB).
func Fig3a(cfg Config) (*Table, error) {
	hi := 8
	if cfg.Full {
		hi = 11
	}
	t := &Table{
		ID:      "fig3a",
		Title:   "ERB communication vs number of peers (honest)",
		Columns: []string{"N", "Ex (MB)", "Th (MB)", "messages"},
		Notes: []string{
			"Th = 2*N^2 envelopes of ~110 B; paper reports 277 MB at N=1024",
		},
	}
	sizes := sizesUpTo(1, hi)
	rows, err := parallel.Map(len(sizes), func(i int) ([]string, error) {
		n := sizes[i]
		run, rerr := runERB(cfg, n, 0)
		if rerr != nil {
			return nil, fmt.Errorf("fig3a N=%d: %w", n, rerr)
		}
		return []string{
			fmt.Sprint(n),
			fmtMB(float64(run.Bytes)),
			fmtMB(erbPeakBytes(n)),
			fmt.Sprint(run.Messages),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}

// Fig3b reproduces Figure 3b: communication of the unoptimized (ERNG-0)
// and optimized (ERNG-1) random number generators versus network size,
// with the theoretical curves. Expected shape: cubic for ERNG-0; ERNG-1
// clearly below it at equal N (the paper reports ~60% lower at 2^9 with
// the 2N/3 fallback cluster), with the ideal N*log N curve shown for
// reference.
func Fig3b(cfg Config) (*Table, error) {
	hi := 6
	if cfg.Full {
		hi = 8
	}
	t := &Table{
		ID:    "fig3b",
		Title: "ERNG communication vs number of peers (honest)",
		Columns: []string{
			"N", "Ex-ERNG-0 (MB)", "Th-ERNG-0 (MB)", "Ex-ERNG-1 (MB)", "Th-ERNG-1 ideal (MB)", "savings",
		},
		Notes: []string{
			"Th-ERNG-0 = 2*N^2*(N-1) envelopes; Th-ERNG-1 ideal = N*gamma-scale curve (guaranteed for large N only, like the paper's)",
			"ERNG-1 runs the paper's small-N fallback (cluster of ~2N/3, every member initiating) below N=256,",
			"and switches to the sampled O(log N) cluster construction at N >= 256 — the ideal regime the paper's theoretical curve shows",
		},
	}
	env := float64(envelopeSize())
	sizes := sizesUpTo(2, hi)
	// The basic and optimized runs of each size are independent; sweep
	// them as 2*len(sizes) flat jobs so the two heavyweight runs at the
	// largest N overlap instead of serializing within one point.
	runs, err := parallel.Map(2*len(sizes), func(j int) (erngRun, error) {
		n := sizes[j/2]
		if j%2 == 0 {
			run, rerr := runBasicERNG(cfg, n)
			if rerr != nil {
				return erngRun{}, fmt.Errorf("fig3b basic N=%d: %w", n, rerr)
			}
			return run, nil
		}
		run, rerr := runOptERNG(cfg, n, 1)
		if rerr != nil {
			return erngRun{}, fmt.Errorf("fig3b optimized N=%d: %w", n, rerr)
		}
		return run, nil
	})
	if err != nil {
		return nil, err
	}
	for i, n := range sizes {
		basic, opt := runs[2*i], runs[2*i+1]
		gamma := 3 * math.Log(float64(n))
		thIdeal := (4*gamma*float64(n) + 2*math.Pow(2*gamma, 2)*math.Sqrt(gamma)) * env
		savings := 1 - float64(opt.Bytes)/float64(basic.Bytes)
		t.Rows = append(t.Rows, []string{
			fmt.Sprint(n),
			fmtMB(float64(basic.Bytes)),
			fmtMB(2 * float64(n) * float64(n) * float64(n-1) * env),
			fmtMB(float64(opt.Bytes)),
			fmtMB(thIdeal),
			fmt.Sprintf("%.0f%%", savings*100),
		})
	}
	return t, nil
}

// Fig3c reproduces Figure 3c: ERB traffic versus byzantine fraction.
// Expected shape: traffic decreases as the fraction grows, because
// halt-on-divergence churns misbehaving nodes out and the network stops
// carrying their echoes and acknowledgments (the paper reports ~50% lower
// traffic at 1/4 than honest).
func Fig3c(cfg Config) (*Table, error) {
	n := 128
	if cfg.Full {
		n = 512
	}
	honest, err := runERB(cfg, n, 0)
	if err != nil {
		return nil, fmt.Errorf("fig3c honest: %w", err)
	}
	t := &Table{
		ID:      "fig3c",
		Title:   fmt.Sprintf("ERB communication vs byzantine fraction (chain strategy, N=%d)", n),
		Columns: []string{"byz fraction", "f", "Ex (MB)", "Th honest (MB)", "vs honest"},
		Notes: []string{
			fmt.Sprintf("honest baseline: %s MB; paper (N=512): 69 MB honest vs 35 MB at 1/4", fmtMB(float64(honest.Bytes))),
		},
	}
	fractions := byzFractions(n)
	rows, err := parallel.Map(len(fractions), func(i int) ([]string, error) {
		f := fractions[i]
		run, rerr := runERB(cfg, n, f)
		if rerr != nil {
			return nil, fmt.Errorf("fig3c f=%d: %w", f, rerr)
		}
		return []string{
			fmt.Sprintf("1/%d", n/f),
			fmt.Sprint(f),
			fmtMB(float64(run.Bytes)),
			fmtMB(erbPeakBytes(n)),
			fmt.Sprintf("%.0f%%", 100*float64(run.Bytes)/float64(honest.Bytes)),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	t.Rows = rows
	return t, nil
}
