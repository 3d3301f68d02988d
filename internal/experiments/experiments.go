// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 6 and Appendix D): one function per artifact, each
// building the simulated testbed, sweeping the paper's parameter range
// and returning the series the paper plots. The cmd/p2pexp binary and the
// repository benchmarks are thin wrappers around this package.
//
// The experiment ids match DESIGN.md's per-experiment index: fig2a, fig2b,
// fig2c, fig3a, fig3b, fig3c, tab1, tab2, sanitize, bias.
package experiments

import (
	"fmt"
	"io"
	"strings"
	"time"

	"sgxp2p/internal/adversary"
	"sgxp2p/internal/core/erb"
	"sgxp2p/internal/deploy"
	"sgxp2p/internal/runtime"
	"sgxp2p/internal/simnet"
	"sgxp2p/internal/wire"
)

// Config controls the sweeps.
type Config struct {
	// Full runs the paper-scale parameter ranges (slower); the default
	// ranges finish in seconds and show the same shapes.
	Full bool
	// Seed drives all deterministic randomness.
	Seed int64
	// Delta is the base delivery bound (default 1s, the paper's honest
	// scale). The harness raises it automatically when the offered load
	// exceeds the shared link, as the authors did for the ERNG runs.
	Delta time.Duration
	// Bandwidth is the shared-link bandwidth (default 128 MB/s like the
	// DeterLab testbed). Zero keeps the default; use Unlimited to remove
	// the link model.
	Bandwidth float64
	// ChaosSeed, when non-zero, restricts the chaos experiment to the
	// single fault schedule derived from that seed — the reproduction
	// mode printed by failing chaos invariants.
	ChaosSeed int64
}

// Unlimited disables the bandwidth model when set as Config.Bandwidth.
const Unlimited = -1

func (c Config) delta() time.Duration {
	if c.Delta <= 0 {
		return time.Second
	}
	return c.Delta
}

func (c Config) bandwidth() float64 {
	switch {
	case c.Bandwidth == Unlimited:
		return 0
	case c.Bandwidth <= 0:
		return simnet.DefaultBandwidth
	default:
		return c.Bandwidth
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// Render writes an aligned text table.
func (t *Table) Render(w io.Writer) error {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	if _, err := fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title); err != nil {
		return err
	}
	writeRow := func(cells []string) error {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], cell)
		}
		_, err := fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
		return err
	}
	if err := writeRow(t.Columns); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if err := writeRow(sep); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if err := writeRow(row); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// CSV writes the table as comma-separated values.
func (t *Table) CSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, strings.Join(t.Columns, ",")); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, strings.Join(row, ",")); err != nil {
			return err
		}
	}
	return nil
}

// envelopeSize is the on-wire size of a standard protocol envelope (a
// sealed INIT/ECHO/ACK): 62 bytes of encoded message inside the 48-byte
// sealing envelope.
func envelopeSize() int {
	msg := &wire.Message{Type: wire.TypeInit, HasValue: true}
	return 16 + msg.EncodedSize() + 32
}

// effectiveDelta raises the base delta until the busiest round's traffic
// fits in one delta on the shared link — the manual tuning the paper
// describes ("we had to increase the Delta") made automatic. A 1.5 safety
// factor leaves room for latency jitter.
func effectiveDelta(base time.Duration, peakRoundBytes float64, bandwidth float64) time.Duration {
	if bandwidth <= 0 {
		return base
	}
	tx := time.Duration(peakRoundBytes / bandwidth * 1.5 * float64(time.Second))
	if tx > base {
		return tx
	}
	return base
}

// erbPeakBytes estimates the busiest round of one ERB instance: every
// node echoes to everyone and is acknowledged (~2N^2 envelopes).
func erbPeakBytes(n int) float64 {
	return 2 * float64(n) * float64(n) * float64(envelopeSize())
}

// erngBasicPeakBytes estimates the busiest round of the unoptimized ERNG:
// N concurrent ERB instances (~2N^3 envelopes).
func erngBasicPeakBytes(n int) float64 {
	return 2 * float64(n) * float64(n) * float64(n) * float64(envelopeSize())
}

// erngOptPeakBytes estimates the busiest round of the optimized ERNG in
// fallback mode: a cluster of 2N/3 running one instance per member.
func erngOptPeakBytes(n int) float64 {
	c := 2 * float64(n) / 3
	return 2 * c * c * c * float64(envelopeSize())
}

// erbRun is the measured outcome of one ERB instance over the deployment.
type erbRun struct {
	// Termination is the latest honest acceptance time; OneRound is the
	// effective round duration the run used.
	Termination time.Duration
	OneRound    time.Duration
	// MaxRound is the latest honest decision round.
	MaxRound uint32
	// Messages and Bytes are protocol traffic (setup excluded).
	Messages uint64
	Bytes    uint64
	// Accepted reports whether honest nodes accepted (vs bottom).
	Accepted bool
	// HaltedByz counts byzantine nodes churned out by P4.
	HaltedByz int
}

// runERB executes one ERB broadcast with initiator 0 on a fresh
// deployment; nodes 0..chainLen-1 run the worst-case chain strategy
// (chainLen 0 = honest run).
func runERB(cfg Config, n int, chainLen int) (erbRun, error) {
	return runERBOpts(cfg, n, chainLen, 0)
}

// paperDeployment builds the fresh deployment a figure or table run
// measures: n nodes tolerating t faults on the configured shared link,
// Delta raised until peakBytes — the protocol's busiest round — fits
// (effectiveDelta), traffic counters zeroed so setup is excluded.
//
// DisableBatching is paper-faithful wire accounting, not a leftover:
// figure and table experiments count the per-message envelopes the
// paper's evaluation measured, so frame coalescing — a post-paper speedup
// — stays off. Batched, fig2b's termination, fig3b's bytes and tab2's
// message count and fitted exponent (3.07 → 2.07, the O(N^3) evidence) all
// move: EXPERIMENTS.md "coalesce" has the verdict on the knob, and `make
// figures-check` is the oracle.
func paperDeployment(cfg Config, n, t int, peakBytes float64, wrap deploy.TransportWrapper) (*deploy.Deployment, error) {
	d, err := deploy.New(deploy.Options{
		N: n, T: t,
		Delta:           effectiveDelta(cfg.delta(), peakBytes, cfg.bandwidth()),
		Bandwidth:       cfg.bandwidth(),
		Seed:            cfg.Seed,
		Wrap:            wrap,
		DisableBatching: true,
	})
	if err != nil {
		return nil, err
	}
	d.Net.ResetTraffic()
	return d, nil
}

// runERBOpts is runERB with an explicit ACK threshold: 0 uses the
// protocol default (halt-on-divergence active), negative disables ACK
// tracking entirely — the P4 ablation.
func runERBOpts(cfg Config, n int, chainLen int, ackThreshold int) (erbRun, error) {
	byz := (n - 1) / 2
	var wrap deploy.TransportWrapper
	if chainLen > 0 {
		chain := make([]wire.NodeID, chainLen)
		for i := range chain {
			chain[i] = wire.NodeID(i)
		}
		release := wire.NodeID(chainLen)
		wrap = func(id wire.NodeID, tr runtime.Transport) runtime.Transport {
			if int(id) >= chainLen {
				return tr
			}
			return adversary.Wrap(id, tr, adversary.Chain(chain, int(id), release), cfg.Seed+int64(id))
		}
	}
	d, err := paperDeployment(cfg, n, byz, erbPeakBytes(n), wrap)
	if err != nil {
		return erbRun{}, err
	}
	// Honest and chain runs settle within chainLen+6 rounds; capping the
	// virtual horizon skips the idle tail of the t+2 window.
	d.Sim.SetDeadline(time.Duration(chainLen+6) * d.RoundDuration())
	engines, err := d.Broadcast(erb.Config{
		T:                  byz,
		AckThreshold:       ackThreshold,
		ExpectedInitiators: []wire.NodeID{0},
	}, wire.Value{0xE1}, nil)
	if err != nil {
		return erbRun{}, err
	}

	out := erbRun{OneRound: d.RoundDuration()}
	firstHonest := chainLen
	accepted := 0
	for i := firstHonest; i < n; i++ {
		res, ok := engines[i].Result(0)
		if !ok {
			continue
		}
		if res.Accepted {
			accepted++
			if res.At > out.Termination {
				out.Termination = res.At
			}
			if res.Round > out.MaxRound {
				out.MaxRound = res.Round
			}
		}
	}
	out.Accepted = accepted == n-firstHonest
	tr := d.Net.Traffic()
	out.Messages = tr.Messages
	out.Bytes = tr.Bytes
	for i := 0; i < chainLen; i++ {
		if d.Peers[i].Halted() {
			out.HaltedByz++
		}
	}
	return out, nil
}

// fmtDuration renders a duration in seconds with two decimals, the unit
// of the paper's figures.
func fmtDuration(d time.Duration) string {
	return fmt.Sprintf("%.2f", d.Seconds())
}

// fmtMB renders bytes in megabytes, the unit of the paper's Figure 3.
func fmtMB(b float64) string {
	return fmt.Sprintf("%.2f", b/(1<<20))
}
