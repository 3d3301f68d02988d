package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// spanName identifies the boundary a span was recorded at. The bench
// records every span from outside the program: around its own driver
// steps and inside the three shims of shims.go.
type spanName uint8

const (
	spOp            spanName = iota // one traced op: the root of everything below
	spDeployNew                     // deploy.New inside an op (erb_chain_cold only)
	spBuild                         // driver: building N engines / N×k mux spawns
	spRun                           // Deployment.Run; its self time is vclock dispatch
	spCollect                       // driver: reading results, bumping sequence numbers
	spAfter                         // transport shim: an After callback (round tick)
	spHandler                       // transport shim: the delivery handler
	spSend                          // transport shim: Transport.Send
	spOnRound                       // protocol shim
	spOnMessage                     // protocol shim
	spOnFinish                      // protocol shim
	spHostMulticast                 // host shim
	spHostSend                      // host shim
	spHostSendAck                   // host shim
	spHostFlush                     // host shim
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"driver.op", "deploy.new", "driver.build", "deploy.run", "driver.collect",
	"transport.after", "transport.handler", "transport.send",
	"proto.on_round", "proto.on_message", "proto.on_finish",
	"host.multicast", "host.send", "host.send_ack", "host.flush",
}

// span is one recorded interval. Times are nanoseconds since the recorder
// was created; Parent is -1 for a root.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Op     int    `json:"op"`
	Node   int32  `json:"node"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

type frame struct {
	name  spanName
	node  int32
	id    int32
	start time.Duration
	child time.Duration
}

// maxKeptSpans bounds the full spans a recorder keeps (one erb_mux call is
// 800 000 spans; spans.jsonl is for reading, not for totals).
const maxKeptSpans = 1 << 17

// recorder accumulates per-name self time and counts for every traced op
// and keeps the full spans of the first keepOps calls, up to maxKeptSpans.
// The simulator is one
// goroutine, so spans nest strictly and a stack suffices: a span's self
// time is its duration minus the durations of the spans opened directly
// under it.
type recorder struct {
	clock   func() time.Duration
	stack   []frame
	self    [numSpanNames]time.Duration
	count   [numSpanNames]uint64
	op      int
	keepOps int
	kept    []span
	next    int32
}

func newRecorder(keepOps int) *recorder {
	base := time.Now()
	return &recorder{clock: func() time.Duration { return time.Since(base) }, keepOps: keepOps}
}

func (r *recorder) begin(name spanName, node int32) {
	r.stack = append(r.stack, frame{name: name, node: node, id: r.next, start: r.clock()})
	r.next++
}

func (r *recorder) end() {
	now := r.clock()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := now - f.start
	r.self[f.name] += dur - f.child
	r.count[f.name]++
	parent := int32(-1)
	if n := len(r.stack); n > 0 {
		r.stack[n-1].child += dur
		parent = r.stack[n-1].id
	}
	if r.op < r.keepOps && len(r.kept) < maxKeptSpans {
		r.kept = append(r.kept, span{
			ID: f.id, Parent: parent, Name: spanNames[f.name], Op: r.op, Node: f.node,
			Start: int64(f.start), End: int64(now),
		})
	}
}

// reset forgets everything recorded so far (the warm-up).
func (r *recorder) reset() {
	r.self, r.count = [numSpanNames]time.Duration{}, [numSpanNames]uint64{}
	r.kept, r.op = r.kept[:0], 0
}

// spans returns the total number of spans recorded.
func (r *recorder) spans() uint64 {
	var n uint64
	for _, c := range r.count {
		n += c
	}
	return n
}

// selfTimes computes per-name self time from a set of full spans the slow
// way: each span's duration minus the union of the intervals its direct
// children cover (clipped to the parent, so overlapping or overhanging
// children are not counted twice). It is the reference the stack
// arithmetic of recorder.end is tested against.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int32][]span)
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
