package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"sgxp2p/internal/telemetry"
)

// Aggregator ingests the fleet's live telemetry streams (the EV/MT lines
// the barrier routes to its stream sink) and folds them into fleet-level
// views while the run is still going:
//
//   - per-round percentiles: every node's round events carry its
//     round-entry instant on the shared clock; once a round has a sample
//     from every node, the spread (p50/p90/max of entry skew) is logged
//     live — no post-hoc trace merge needed to watch the fleet march.
//   - metric gauges: the latest streamed value of every metric row per
//     node, so resource pressure (the obsplane probe gauges) is visible
//     next to protocol progress.
//   - the seq-gap count: stream lines that were lost or malformed.
//
// It retains no events — every node, a SIGKILLed one included, leaves its
// own trace file, and merged.jsonl is the run's one event archive — so
// its memory is O(nodes × rounds).
//
// Ingest runs on the barrier's per-connection goroutines; everything is
// guarded by one mutex — the streams are a few lines per node per poll
// interval, nowhere near contention.
type Aggregator struct {
	mu  sync.Mutex
	n   int
	log io.Writer

	metrics map[int]map[string]float64
	rounds  map[uint32]map[int]time.Duration
	seen    map[uint32]bool
	lastSeq map[int]uint64
	gaps    int
}

// NewAggregator creates an aggregator for an n-node fleet. log, when
// non-nil, receives the live per-round timeline.
func NewAggregator(n int, log io.Writer) *Aggregator {
	return &Aggregator{
		n: n, log: log,
		metrics: make(map[int]map[string]float64, n),
		rounds:  make(map[uint32]map[int]time.Duration),
		seen:    make(map[uint32]bool),
		lastSeq: make(map[int]uint64, n),
	}
}

// Ingest consumes one streamed line from node id. Malformed lines are
// counted as gaps, never fatal: a half-written line from a dying process
// is expected input here.
func (a *Aggregator) Ingest(id int, line string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case strings.HasPrefix(line, "EV "):
		a.ingestEvent(id, line[len("EV "):])
	case strings.HasPrefix(line, "MT "):
		a.ingestMetric(id, line[len("MT "):])
	}
}

func (a *Aggregator) ingestEvent(id int, rest string) {
	seqTok, payload, ok := strings.Cut(rest, " ")
	if !ok {
		a.gaps++
		return
	}
	seq, err := strconv.ParseUint(seqTok, 10, 64)
	if err != nil {
		a.gaps++
		return
	}
	ev, err := telemetry.DecodeEventLine([]byte(payload))
	if err != nil {
		a.gaps++
		return
	}
	// Sequence continuity per node: a jump means lines were lost (a new
	// incarnation restarts at 1, which also reads as a jump — both are
	// worth surfacing in the summary, neither is fatal).
	if last := a.lastSeq[id]; seq != last+1 && !(last == 0 && seq == 1) {
		a.gaps++
	}
	a.lastSeq[id] = seq
	if ev.Kind == telemetry.KindRound && int(ev.Node) == id {
		byNode := a.rounds[ev.Round]
		if byNode == nil {
			byNode = make(map[int]time.Duration, a.n)
			a.rounds[ev.Round] = byNode
		}
		if _, dup := byNode[id]; !dup {
			byNode[id] = ev.At
			if len(byNode) == a.n {
				a.reportRound(ev.Round, byNode)
			}
		}
	}
}

func (a *Aggregator) ingestMetric(id int, rest string) {
	// MT <seq> <kind> <name> <value>
	f := strings.Fields(rest)
	if len(f) != 4 {
		a.gaps++
		return
	}
	v, err := strconv.ParseFloat(f[3], 64)
	if err != nil {
		a.gaps++
		return
	}
	m := a.metrics[id]
	if m == nil {
		m = make(map[string]float64)
		a.metrics[id] = m
	}
	m[f[1]+" "+f[2]] = v
}

// reportRound logs one complete round's entry-skew percentiles (mu held).
// Skew is each node's round-entry instant minus the fleet's earliest —
// the live view of assumption S2 holding (or drifting) across the fleet.
func (a *Aggregator) reportRound(round uint32, byNode map[int]time.Duration) {
	if a.seen[round] {
		return
	}
	a.seen[round] = true
	stats := roundSkew(byNode)
	if a.log != nil {
		fmt.Fprintf(a.log, "  round %d: %d/%d nodes, entry skew p50=%v p90=%v max=%v\n",
			round, len(byNode), a.n, stats.P50, stats.P90, stats.Max)
	}
}

// skewStats is one round's fleet entry-skew distribution.
type skewStats struct {
	Round uint32        `json:"round"`
	Nodes int           `json:"nodes"`
	P50   time.Duration `json:"p50_ns"`
	P90   time.Duration `json:"p90_ns"`
	Max   time.Duration `json:"max_ns"`
}

// roundSkew folds one round's per-node entry instants into percentiles.
func roundSkew(byNode map[int]time.Duration) skewStats {
	at := make([]time.Duration, 0, len(byNode))
	for _, d := range byNode {
		at = append(at, d)
	}
	sort.Slice(at, func(i, j int) bool { return at[i] < at[j] })
	base := at[0]
	for i := range at {
		at[i] -= base
	}
	return skewStats{
		Nodes: len(byNode),
		P50:   at[len(at)/2],
		P90:   at[len(at)*9/10],
		Max:   at[len(at)-1],
	}
}

// Gaps reports how many malformed or out-of-sequence stream lines were
// seen — nonzero under churn (a relaunch restarts its sequence), zero in
// a clean run.
func (a *Aggregator) Gaps() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.gaps
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
