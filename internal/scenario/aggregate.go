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
//     round-entry instant on the shared clock, and that instant places
//     the event in its epoch's slot of the schedule (epochOf); once a
//     round of an epoch has a sample from every node, the spread (p50/p90/max of entry skew) and the
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
// memory is O(nodes × epochs × rounds).
//
// Ingest runs on the barrier's per-connection goroutines; everything is
// guarded by one mutex — the streams are a few writes per node per export
// interval, nowhere near contention.
type Aggregator struct {
	mu    sync.Mutex
	n     int
	log   io.Writer
	start time.Time
	// slot and round are the epoch schedule's slot and round lengths
	// (EpochWindow, 2Δ); a zero slot puts every event in epoch 0.
	slot, round time.Duration

	metrics map[int]map[string]float64
	rounds  map[roundKey]map[int]sample
	seen    map[roundKey]bool
	gaps    int
	maxLag  time.Duration
}

// roundKey names one round of one epoch. A round event carries the
// node's round within its epoch and instance 0, so the epoch comes from
// the event's instant (epochOf).
type roundKey struct{ epoch, round uint32 }

// sample is one node's entry into a round: the instant on the shared
// clock, and the runner's ingest lag behind it.
type sample struct{ at, lag time.Duration }

// NewAggregator creates an aggregator for an n-node fleet. log, when
// non-nil, receives the live per-round timeline.
func NewAggregator(n int, log io.Writer) *Aggregator {
	return &Aggregator{
		n: n, log: log,
		metrics: make(map[int]map[string]float64, n),
		rounds:  make(map[roundKey]map[int]sample),
		seen:    make(map[roundKey]bool),
	}
}

// setSchedule fixes the epoch schedule round events are placed in: slots
// of the given rounds, each round 2Δ long.
func (a *Aggregator) setSchedule(rounds int, delta time.Duration) {
	a.mu.Lock()
	a.slot, a.round = EpochWindow(rounds, delta), 2*delta
	a.mu.Unlock()
}

// epochOf is the epoch whose slot round r entered at instant at belongs
// to: the slot whose start lies nearest to where round r would have
// started, so a node that enters late or early by up to half a slot
// still counts toward its own epoch (mu held).
func (a *Aggregator) epochOf(r uint32, at time.Duration) uint32 {
	if a.slot <= 0 {
		return 0
	}
	begin := at - time.Duration(max(int(r)-1, 0))*a.round
	return uint32(max((begin+a.slot/2)/a.slot, 0))
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
	k := roundKey{a.epochOf(ev.Round, ev.At), ev.Round}
	byNode := a.rounds[k]
	if byNode == nil {
		byNode = make(map[int]sample, a.n)
		a.rounds[k] = byNode
	}
	if _, dup := byNode[id]; !dup {
		byNode[id] = sample{at: ev.At, lag: lag}
		if len(byNode) == a.n {
			a.reportRound(k, byNode)
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
func (a *Aggregator) reportRound(k roundKey, byNode map[int]sample) {
	if a.seen[k] {
		return
	}
	a.seen[k] = true
	stats := roundSkew(byNode)
	if a.log != nil {
		fmt.Fprintf(a.log, "  epoch %d round %d: %d/%d nodes, entry skew p50=%v p90=%v max=%v, ingest lag p50=%v max=%v\n",
			k.epoch, k.round, len(byNode), a.n, stats.P50, stats.P90, stats.Max, stats.LagP50, stats.LagMax)
	}
}

// skewStats is one round's fleet entry-skew distribution, and the
// runner's ingest lag over the same round events.
type skewStats struct {
	Epoch  uint32        `json:"epoch"`
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
// aggregate.jsonl: one line per epoch and round with its skew percentiles, then
// one line per node's final streamed gauge set.
func (a *Aggregator) WriteArtifacts(outDir string) error {
	a.mu.Lock()
	keys := make([]roundKey, 0, len(a.rounds))
	for k := range a.rounds {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].round < keys[j].round
	})
	rows := make([]skewStats, 0, len(keys))
	for _, k := range keys {
		st := roundSkew(a.rounds[k])
		st.Epoch, st.Round = k.epoch, k.round
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
