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
//     watch the fleet march. The lag is split at the node's drain that
//     shipped the event (its DR stamp): the node side is event to drain,
//     the runner side drain to ingest, socket and decoding included.
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
	maxNode time.Duration // node side of the lag: event to drain
}

// roundKey names one round of one epoch. A round event carries the
// node's round within its epoch and instance 0, so the epoch comes from
// the event's instant (epochOf).
type roundKey struct{ epoch, round uint32 }

// sample is one node's entry into a round: the instant on the shared
// clock, the runner's ingest lag behind it, and the lag's node side.
type sample struct{ at, lag, node time.Duration }

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

// event folds node id's event in, shipped by the drain stamped drainAt;
// only its own round entries count.
func (a *Aggregator) event(id int, ev telemetry.Event, drainAt time.Duration) {
	if ev.Kind != telemetry.KindRound || int(ev.Node) != id {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	lag, node := time.Since(a.start)-ev.At, drainAt-ev.At
	a.maxLag, a.maxNode = max(a.maxLag, lag), max(a.maxNode, node)
	k := roundKey{a.epochOf(ev.Round, ev.At), ev.Round}
	byNode := a.rounds[k]
	if byNode == nil {
		byNode = make(map[int]sample, a.n)
		a.rounds[k] = byNode
	}
	if _, dup := byNode[id]; !dup {
		byNode[id] = sample{at: ev.At, lag: lag, node: node}
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
		fmt.Fprintf(a.log, "  epoch %d round %d: %d/%d nodes, entry skew p50=%v p90=%v max=%v, ingest lag p50=%v max=%v (node side p50=%v max=%v, runner side p50=%v max=%v)\n",
			k.epoch, k.round, len(byNode), a.n, stats.P50, stats.P90, stats.Max, stats.LagP50, stats.LagMax,
			stats.NodeP50, stats.NodeMax, stats.RunnerP50, stats.RunnerMax)
	}
}

// skewStats is one round's fleet entry-skew distribution, and the
// runner's ingest lag over the same round events with its node side
// (event to drain) and runner side (drain to ingest).
type skewStats struct {
	Epoch     uint32        `json:"epoch"`
	Round     uint32        `json:"round"`
	Nodes     int           `json:"nodes"`
	P50       time.Duration `json:"p50_ns"`
	P90       time.Duration `json:"p90_ns"`
	Max       time.Duration `json:"max_ns"`
	LagP50    time.Duration `json:"ingest_lag_p50_ns"`
	LagMax    time.Duration `json:"ingest_lag_max_ns"`
	NodeP50   time.Duration `json:"node_lag_p50_ns"`
	NodeMax   time.Duration `json:"node_lag_max_ns"`
	RunnerP50 time.Duration `json:"runner_lag_p50_ns"`
	RunnerMax time.Duration `json:"runner_lag_max_ns"`
}

// roundSkew folds one round's per-node samples into percentiles.
func roundSkew(byNode map[int]sample) skewStats {
	var at, lag, node, runner []time.Duration
	for _, s := range byNode {
		at, lag = append(at, s.at), append(lag, s.lag)
		node, runner = append(node, s.node), append(runner, s.lag-s.node)
	}
	slices.Sort(at)
	slices.Sort(lag)
	slices.Sort(node)
	slices.Sort(runner)
	mid, last := len(at)/2, len(at)-1
	return skewStats{
		Nodes: len(byNode),
		P50:   at[mid] - at[0], P90: at[len(at)*9/10] - at[0], Max: at[last] - at[0],
		LagP50: lag[mid], LagMax: lag[last],
		NodeP50: node[mid], NodeMax: node[last],
		RunnerP50: runner[mid], RunnerMax: runner[last],
	}
}

// totals reports how many lines were malformed or broke their
// connection's sequence, and the largest ingest lag of any node's round
// entry and the largest node side of one. A clean run, crashes and
// relaunches included, has no gaps: each incarnation's connection starts
// its own sequence.
func (a *Aggregator) totals() (gaps int, maxLag, maxNode time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gaps, a.maxLag, a.maxNode
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
