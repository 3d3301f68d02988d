// Package obsplane is the live fleet observability plane built on the
// telemetry layer: it reconstructs cross-process causal spans out of
// merged event streams and samples per-process resource probes into the
// metrics registry.
//
// A causal span is one sealed envelope's life. The runtime records hop
// events keyed by the envelope's channel.FrameTag — the first eight
// sealed bytes, identical at sender and receiver, so the id costs zero
// wire bytes and two processes' traces join without coordination:
//
//	seal    (sender)    the envelope leaves the enclave boundary
//	transit             open.At − seal.At across the shared clock origin
//	open    (receiver)  the envelope authenticates back in
//	deliver (receiver)  a decoded message passes the lockstep checks
//	handle  (receiver)  the protocol's OnMessage returns
//
// Reconstruct joins these into happens-before chains (one SpanRecord per
// envelope, each a seal→open→deliver→handle edge path) and HopStats
// folds them into per-hop latency distributions — the decomposition the
// paper's evaluation needs at scale ("where does the round go").
package obsplane

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"sgxp2p/internal/telemetry"
	"sgxp2p/internal/wire"
)

// Delivery is one message delivered out of a span's envelope.
type Delivery struct {
	// At is the delivery instant; Gap its distance from the open hop
	// (0 when the span has no open event).
	At  time.Duration `json:"at"`
	Gap time.Duration `json:"gap"`
	// Handle is the protocol's OnMessage duration for this message
	// (-1 when the handled event is missing — the process died mid-hop).
	Handle time.Duration `json:"handle"`
	// Instance attributes the message to its protocol instance.
	Instance uint32 `json:"inst,omitempty"`
}

// SpanRecord is one reconstructed envelope chain. Fields that were never
// observed (the counterpart process's stream is missing or truncated)
// hold -1 for durations and instants, so a partial chain is visibly
// partial instead of silently zero.
type SpanRecord struct {
	Span  uint64 `json:"span"`
	Src   int64  `json:"src"`
	Dst   int64  `json:"dst"`
	Round uint32 `json:"round"`
	// SealAt/OpenAt are hop end instants on the fleet's shared clock.
	SealAt time.Duration `json:"seal_at"`
	OpenAt time.Duration `json:"open_at"`
	// Seal/Open are the hop durations the recording side measured.
	Seal time.Duration `json:"seal"`
	Open time.Duration `json:"open"`
	// Transit is OpenAt − SealAt: queueing + wire + scheduling between
	// the two enclave boundaries.
	Transit    time.Duration `json:"transit"`
	Deliveries []Delivery    `json:"deliveries,omitempty"`
}

// missing marks an unobserved instant or duration in a partial chain.
const missing = time.Duration(-1)

// Complete reports whether both sides of the span were observed.
func (s *SpanRecord) Complete() bool { return s.SealAt != missing && s.OpenAt != missing }

// Graph is the reconstructed happens-before graph: every span chain,
// ordered deterministically (seal instant, then span id, then endpoints)
// so equal event multisets serialize byte-identically per seed.
type Graph struct {
	Spans []SpanRecord
}

// Reconstruct joins a merged event stream's span hops into chains. The
// input should be MergeEvents output (or a single tracer's Events): the
// within-node record order pairs each handled event with its delivery.
// Events without a span id are ignored, so the full merged trace can be
// passed as-is.
func Reconstruct(events []telemetry.Event) *Graph {
	type key struct {
		span uint64
		src  wire.NodeID
		dst  wire.NodeID
	}
	idx := make(map[key]int)
	var spans []SpanRecord
	lookup := func(k key, round uint32) *SpanRecord {
		if i, ok := idx[k]; ok {
			return &spans[i]
		}
		idx[k] = len(spans)
		spans = append(spans, SpanRecord{
			Span: k.span, Src: telemetry.NodeJSON(k.src), Dst: telemetry.NodeJSON(k.dst), Round: round,
			SealAt: missing, OpenAt: missing, Seal: missing, Open: missing, Transit: missing,
		})
		return &spans[len(spans)-1]
	}
	for _, ev := range events {
		if ev.Span == 0 {
			continue
		}
		switch ev.Kind {
		case telemetry.KindSeal:
			sr := lookup(key{ev.Span, ev.Node, ev.Peer}, ev.Round)
			sr.SealAt = ev.At
			sr.Seal = time.Duration(ev.Arg)
		case telemetry.KindOpen:
			sr := lookup(key{ev.Span, ev.Peer, ev.Node}, ev.Round)
			sr.OpenAt = ev.At
			sr.Open = time.Duration(ev.Arg)
		case telemetry.KindDeliver:
			sr := lookup(key{ev.Span, ev.Peer, ev.Node}, ev.Round)
			sr.Deliveries = append(sr.Deliveries, Delivery{At: ev.At, Handle: missing, Instance: ev.Instance})
		case telemetry.KindHandled:
			sr := lookup(key{ev.Span, ev.Peer, ev.Node}, ev.Round)
			// Record order within the receiver pairs handled events with
			// deliveries first-in-first-served: attach to the earliest
			// delivery still waiting for its handle hop.
			for i := range sr.Deliveries {
				if sr.Deliveries[i].Handle == missing {
					sr.Deliveries[i].Handle = time.Duration(ev.Arg)
					break
				}
			}
		}
	}
	for i := range spans {
		sr := &spans[i]
		if sr.Complete() {
			sr.Transit = sr.OpenAt - sr.SealAt
		}
		if sr.OpenAt != missing {
			for j := range sr.Deliveries {
				sr.Deliveries[j].Gap = sr.Deliveries[j].At - sr.OpenAt
			}
		}
	}
	sort.SliceStable(spans, func(i, j int) bool {
		a, b := spans[i], spans[j]
		if a.SealAt != b.SealAt {
			return a.SealAt < b.SealAt
		}
		if a.Span != b.Span {
			return a.Span < b.Span
		}
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		return a.Dst < b.Dst
	})
	return &Graph{Spans: spans}
}

// WriteJSONL serializes the graph one span chain per line, in graph
// order. Equal graphs write identical bytes — the golden determinism
// tests pin this per seed.
func (g *Graph) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for i := range g.Spans {
		line, err := json.Marshal(&g.Spans[i])
		if err != nil {
			return fmt.Errorf("obsplane: marshal span: %w", err)
		}
		if _, err := bw.Write(line); err != nil {
			return err
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// HopStats is one hop's latency distribution across the graph.
type HopStats struct {
	Hop   string
	Count int
	Min   time.Duration
	P50   time.Duration
	P90   time.Duration
	Max   time.Duration
	// Buckets counts samples per power-of-four bucket starting at 1µs:
	// le 1µs, 4µs, 16µs, …, 1.07s, +Inf (len hopBuckets+1).
	Buckets []int
}

// hopBuckets are the histogram bounds: powers of four from 1µs.
var hopBuckets = func() []time.Duration {
	b := make([]time.Duration, 11)
	d := time.Microsecond
	for i := range b {
		b[i] = d
		d *= 4
	}
	return b
}()

// HopStats folds the graph into per-hop distributions, in pipeline order
// (seal, transit, open, deliver, handle). Unobserved hops of partial
// chains are skipped, not counted as zero.
func (g *Graph) HopStats() []HopStats {
	samples := map[string][]time.Duration{}
	add := func(hop string, d time.Duration) {
		if d != missing {
			samples[hop] = append(samples[hop], d)
		}
	}
	for i := range g.Spans {
		sr := &g.Spans[i]
		add("seal", sr.Seal)
		add("transit", sr.Transit)
		add("open", sr.Open)
		for _, dl := range sr.Deliveries {
			if sr.OpenAt != missing {
				add("deliver", dl.Gap)
			}
			add("handle", dl.Handle)
		}
	}
	out := make([]HopStats, 0, 5)
	for _, hop := range []string{"seal", "transit", "open", "deliver", "handle"} {
		s := samples[hop]
		if len(s) == 0 {
			continue
		}
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		hs := HopStats{
			Hop: hop, Count: len(s),
			Min: s[0], P50: s[len(s)/2], P90: s[len(s)*9/10], Max: s[len(s)-1],
			Buckets: make([]int, len(hopBuckets)+1),
		}
		for _, d := range s {
			b := sort.Search(len(hopBuckets), func(i int) bool { return hopBuckets[i] >= d })
			hs.Buckets[b]++
		}
		out = append(out, hs)
	}
	return out
}

// WriteHopHistogram renders the per-hop latency histograms as a terminal
// table: one section per hop with the summary line and a bar per
// non-empty bucket.
func WriteHopHistogram(w io.Writer, g *Graph) error {
	bw := bufio.NewWriter(w)
	complete := 0
	for i := range g.Spans {
		if g.Spans[i].Complete() {
			complete++
		}
	}
	if _, err := fmt.Fprintf(bw, "spans: %d reconstructed, %d complete\n", len(g.Spans), complete); err != nil {
		return err
	}
	for _, hs := range g.HopStats() {
		if _, err := fmt.Fprintf(bw, "%-8s n=%-6d min=%-10v p50=%-10v p90=%-10v max=%v\n",
			hs.Hop, hs.Count, hs.Min, hs.P50, hs.P90, hs.Max); err != nil {
			return err
		}
		for i, n := range hs.Buckets {
			if n == 0 {
				continue
			}
			label := "+Inf"
			if i < len(hopBuckets) {
				label = hopBuckets[i].String()
			}
			bar := (n*40 + hs.Count - 1) / hs.Count
			if _, err := fmt.Fprintf(bw, "  le %-8s %6d %s\n", label, n, strings.Repeat("█", bar)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
