package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"time"

	"sgxp2p/internal/telemetry"
)

// Aggregator folds the fleet's telemetry (the EV/MT lines every node
// ships over its control connection, parsed by the barrier) into
// fleet-level views while the run is still going:
//
//   - per-round percentiles: every node's round events carry its
//     round-entry instant on the shared clock; once a round has a sample
//     from every node, the spread (p50/p90/max of entry skew) and the
//     runner's ingest lag (how long after that instant the event reached
//     the runner) are logged live — no post-hoc trace merge needed to
//     watch the fleet march.
//   - metric gauges: the latest value of every metric row per node, so
//     resource pressure (the obsplane probe gauges) is visible next to
//     protocol progress.
//   - the gap count: lines that were malformed or broke their
//     connection's sequence.
//
// It retains no events — the barrier writes them into the incarnations'
// trace files, and merged.jsonl is the run's one event archive — so its
// memory is O(nodes × rounds).
//
// Ingest runs on the barrier's per-connection goroutines; everything is
// guarded by one mutex — the streams are a few writes per node per export
// interval, nowhere near contention.
type Aggregator struct {
	mu    sync.Mutex
	n     int
	log   io.Writer
	start time.Time

	metrics map[int]map[string]float64
	rounds  map[uint32]map[int]sample
	seen    map[uint32]bool
	gaps    int
	maxLag  time.Duration
}

// sample is one node's entry into a round: the instant on the shared
// clock, and the runner's ingest lag behind it.
type sample struct{ at, lag time.Duration }

// NewAggregator creates an aggregator for an n-node fleet. log, when
// non-nil, receives the live per-round timeline.
func NewAggregator(n int, log io.Writer) *Aggregator {
	return &Aggregator{
		n: n, log: log,
		metrics: make(map[int]map[string]float64, n),
		rounds:  make(map[uint32]map[int]sample),
		seen:    make(map[uint32]bool),
	}
}

// setStart fixes the shared start instant the ingest lag is measured from.
func (a *Aggregator) setStart(start time.Time) {
	a.mu.Lock()
	a.start = start
	a.mu.Unlock()
}

// gap counts one lost or malformed line.
func (a *Aggregator) gap() {
	a.mu.Lock()
	a.gaps++
	a.mu.Unlock()
}

// event folds node id's event in; only its own round entries count.
func (a *Aggregator) event(id int, ev telemetry.Event) {
	if ev.Kind != telemetry.KindRound || int(ev.Node) != id {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lag := time.Since(a.start) - ev.At
	a.maxLag = max(a.maxLag, lag)
	byNode := a.rounds[ev.Round]
	if byNode == nil {
		byNode = make(map[int]sample, a.n)
		a.rounds[ev.Round] = byNode
	}
	if _, dup := byNode[id]; !dup {
		byNode[id] = sample{at: ev.At, lag: lag}
		if len(byNode) == a.n {
			a.reportRound(ev.Round, byNode)
		}
	}
}

// metric records node id's latest value of one "<kind> <name>" row.
func (a *Aggregator) metric(id int, key string, v float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	m := a.metrics[id]
	if m == nil {
		m = make(map[string]float64)
		a.metrics[id] = m
	}
	m[key] = v
}

// reportRound logs one complete round's entry-skew percentiles (mu held).
// Skew is each node's round-entry instant minus the fleet's earliest —
// the live view of assumption S2 holding (or drifting) across the fleet.
func (a *Aggregator) reportRound(round uint32, byNode map[int]sample) {
	if a.seen[round] {
		return
	}
	a.seen[round] = true
	stats := roundSkew(byNode)
	if a.log != nil {
		fmt.Fprintf(a.log, "  round %d: %d/%d nodes, entry skew p50=%v p90=%v max=%v, ingest lag p50=%v max=%v\n",
			round, len(byNode), a.n, stats.P50, stats.P90, stats.Max, stats.LagP50, stats.LagMax)
	}
}

// skewStats is one round's fleet entry-skew distribution, and the
// runner's ingest lag over the same round events.
type skewStats struct {
	Round  uint32        `json:"round"`
	Nodes  int           `json:"nodes"`
	P50    time.Duration `json:"p50_ns"`
	P90    time.Duration `json:"p90_ns"`
	Max    time.Duration `json:"max_ns"`
	LagP50 time.Duration `json:"ingest_lag_p50_ns"`
	LagMax time.Duration `json:"ingest_lag_max_ns"`
}

// roundSkew folds one round's per-node samples into percentiles.
func roundSkew(byNode map[int]sample) skewStats {
	at := make([]time.Duration, 0, len(byNode))
	lag := make([]time.Duration, 0, len(byNode))
	for _, s := range byNode {
		at = append(at, s.at)
		lag = append(lag, s.lag)
	}
	slices.Sort(at)
	slices.Sort(lag)
	base := at[0]
	for i := range at {
		at[i] -= base
	}
	return skewStats{
		Nodes:  len(byNode),
		P50:    at[len(at)/2],
		P90:    at[len(at)*9/10],
		Max:    at[len(at)-1],
		LagP50: lag[len(lag)/2],
		LagMax: lag[len(lag)-1],
	}
}

// totals reports how many lines were malformed or broke their
// connection's sequence, and the largest ingest lag of any node's round
// entry. A clean run, crashes and relaunches included, has no gaps: each
// incarnation's connection starts its own sequence.
func (a *Aggregator) totals() (gaps int, maxLag time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gaps, a.maxLag
}

// WriteArtifacts persists the aggregated views into outDir as
// aggregate.jsonl: one line per completed round's skew percentiles, then
// one line per node's final streamed gauge set.
func (a *Aggregator) WriteArtifacts(outDir string) error {
	a.mu.Lock()
	rounds := make([]uint32, 0, len(a.rounds))
	for r := range a.rounds {
		rounds = append(rounds, r)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	rows := make([]skewStats, 0, len(rounds))
	for _, r := range rounds {
		st := roundSkew(a.rounds[r])
		st.Round = r
		rows = append(rows, st)
	}
	type gaugeRow struct {
		Node    int                `json:"node"`
		Metrics map[string]float64 `json:"metrics"`
	}
	gids := make([]int, 0, len(a.metrics))
	for id := range a.metrics {
		gids = append(gids, id)
	}
	sort.Ints(gids)
	gauges := make([]gaugeRow, 0, len(gids))
	for _, id := range gids {
		m := make(map[string]float64, len(a.metrics[id]))
		for k, v := range a.metrics[id] {
			m[k] = v
		}
		gauges = append(gauges, gaugeRow{Node: id, Metrics: m})
	}
	a.mu.Unlock()

	f, err := os.Create(filepath.Join(outDir, "aggregate.jsonl"))
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, row := range rows {
		if err = enc.Encode(row); err != nil {
			f.Close()
			return err
		}
	}
	for _, g := range gauges {
		if err = enc.Encode(g); err != nil {
			f.Close()
			return err
		}
	}
	if err = bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
