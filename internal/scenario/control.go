package scenario

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"sgxp2p/internal/obsplane"
	"sgxp2p/internal/telemetry"
)

// Control is the node side of the barrier's conversation and a live
// node's one telemetry sink. After READY and the release (directory.go
// owns those formats), the node ships everything the runner keeps of it
// over this connection, and the runner writes every artifact:
//
//	node → runner:  DR <ns>                         a drain's send time since START, before its lines
//	node → runner:  EV <seq> <event-jsonl>          one trace event
//	node → runner:  MT <seq> <kind> <name> <value>  a metric row whose value changed
//	node → runner:  RESULT <json>                   the node's NodeResult
//	node → runner:  DONE  |  FAIL <reason>
//	runner → node:  PROF                            capture CPU and heap profiles
//
// The event seq is the tracer's own stream sequence (telemetry.Event.Seq),
// so the runner detects holes per connection. The DR stamp splits an
// event's ingest lag at the drain that shipped it. This file formats and
// parses every one of these verbs.
type Control struct {
	conn       net.Conn
	rd         *bufio.Reader
	id         int
	profileDir string
	start      time.Time // the shared START instant, once released

	exp    *exporter
	finish sync.Once
}

// DialControl connects to the runner's barrier and announces this node's
// directory entry. profileDir receives the node's pprof captures.
func DialControl(addr string, self Entry, profileDir string) (*Control, error) {
	conn, err := net.DialTimeout("tcp", addr, 10*time.Second)
	if err != nil {
		return nil, fmt.Errorf("control %s: %w", addr, err)
	}
	if err := WriteReady(conn, self); err != nil {
		conn.Close()
		return nil, err
	}
	return &Control{conn: conn, rd: bufio.NewReader(conn), id: self.ID(), profileDir: profileDir}, nil
}

// AwaitStart blocks until the runner releases the barrier, returning the
// directory of a fleet of n and the shared start instant. From then on a
// goroutine owns the reader and answers the runner's PROF requests; it
// exits when the connection closes.
func (c *Control) AwaitStart(n int) ([]Entry, time.Time, error) {
	if err := c.conn.SetReadDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return nil, time.Time{}, err
	}
	table, start, err := ReadRelease(c.rd, n)
	if err != nil {
		return nil, time.Time{}, err
	}
	if err := c.conn.SetReadDeadline(time.Time{}); err != nil {
		return nil, time.Time{}, err
	}
	c.start = start
	go func() {
		for {
			line, err := c.rd.ReadString('\n')
			if err != nil {
				return
			}
			if strings.TrimSpace(line) == "PROF" {
				c.captureProfiles()
			}
		}
	}()
	return table, start, nil
}

// Export starts shipping trace and metrics to the runner: a resource
// probe samples the process (and, through queue, the transport's link
// queues) into metrics, and an exporter drains both onto the connection
// every exportInterval.
func (c *Control) Export(trace *telemetry.Tracer, metrics *telemetry.Metrics, queue func() (links, total, max int)) {
	c.exp = &exporter{
		trace: trace, metrics: metrics, ctrl: c,
		probe: obsplane.StartProbe(obsplane.ProbeConfig{Metrics: metrics, Queue: queue}),
		errs:  metrics.Counter("telemetry_export_errors_total"),
		stop:  make(chan struct{}), done: make(chan struct{}),
		last: make(map[string]float64),
	}
	go c.exp.loop()
}

// Finish ends the node's conversation: a failing node first writes a heap
// snapshot into its profile directory; then the probe takes its last
// sample, the exporter its final drain, and RESULT and DONE (or FAIL
// with ferr) follow them on the connection — so when the runner reads
// DONE, everything before it has arrived. Only the first call acts; a
// concurrent one (the signal handler's) returns once it is done.
func (c *Control) Finish(res *NodeResult, ferr error) {
	c.finish.Do(func() {
		if ferr != nil {
			c.captureHeapProfile()
		}
		c.exp.halt()
		doc, err := json.Marshal(res)
		if err != nil && ferr == nil {
			ferr = err
		}
		end := "DONE"
		if ferr != nil {
			end = "FAIL " + strings.ReplaceAll(ferr.Error(), "\n", " ")
		}
		_, _ = c.conn.Write(fmt.Appendf(nil, "RESULT %s\n%s\n", doc, end))
	})
}

// Close closes the control connection.
func (c *Control) Close() error { return c.conn.Close() }

// appendEV and appendMT frame one event line and one metric row.
func appendEV(b []byte, seq uint64, line []byte) []byte {
	b = strconv.AppendUint(append(b, "EV "...), seq, 10)
	return append(append(append(b, ' '), line...), '\n')
}

func appendMT(b []byte, seq uint64, mv telemetry.MetricValue) []byte {
	return fmt.Appendf(b, "MT %d %s %s %g\n", seq, mv.Kind, mv.Name, mv.Value)
}

// parseEV reads an EV line's rest: the sequence number and the event,
// decoded strictly, with the line it was decoded from.
func parseEV(rest string) (uint64, telemetry.Event, []byte, error) {
	seqTok, payload, _ := strings.Cut(rest, " ")
	seq, err := strconv.ParseUint(seqTok, 10, 64)
	if err != nil {
		return 0, telemetry.Event{}, nil, fmt.Errorf("EV sequence %q", seqTok)
	}
	ev, err := telemetry.DecodeEventLine([]byte(payload))
	return seq, ev, []byte(payload), err
}

// parseDR reads a DR line's rest: the drain's send time since START.
func parseDR(rest string) (time.Duration, error) {
	ns, err := strconv.ParseInt(rest, 10, 64)
	return time.Duration(ns), err
}

// parseMT reads an MT line's rest into its "<kind> <name>" key and value.
func parseMT(rest string) (string, float64, error) {
	f := strings.Fields(rest)
	if len(f) != 4 {
		return "", 0, fmt.Errorf("MT %q: want <seq> <kind> <name> <value>", rest)
	}
	v, err := strconv.ParseFloat(f[3], 64)
	return f[1] + " " + f[2], v, err
}

// exportInterval is how often the exporter drains new telemetry onto the
// connection. Short enough that the runner's per-round percentiles track
// the fleet live and a SIGKILLed node's trace ends within a fraction of a
// round of its death, long enough that a node issues a handful of writes
// per round, not per event.
const exportInterval = 200 * time.Millisecond

// exporter drains the tracer with a Since cursor, frames each drain's
// events and changed metric rows into one batch, writes it in one Write,
// and releases what it shipped, so the tracer holds at most one
// interval's events. It never blocks the protocol: it reads snapshots
// outside the runtime's event loop and owns no locks the hot path
// touches.
type exporter struct {
	trace   *telemetry.Tracer
	metrics *telemetry.Metrics
	ctrl    *Control
	probe   *obsplane.Probe
	errs    *telemetry.Counter

	stop chan struct{}
	done chan struct{}

	cursor uint64
	buf    []byte
	stamp  []byte
	mseq   uint64
	last   map[string]float64
}

func (e *exporter) loop() {
	defer close(e.done)
	t := time.NewTicker(exportInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			e.drain()
		case <-e.stop:
			e.drain()
			return
		}
	}
}

// drain ships every event recorded since the last drain and every metric
// row whose value changed. An event MarshalEvent rejects is counted and
// leaves a hole in the sequence, which the runner counts as a gap.
func (e *exporter) drain() {
	events := e.trace.Since(e.cursor)
	e.buf = e.buf[:0]
	for _, ev := range events {
		line, err := telemetry.MarshalEvent(ev)
		if err != nil {
			e.errs.Inc()
			continue
		}
		e.buf = appendEV(e.buf, ev.Seq, line)
	}
	e.cursor += uint64(len(events))
	e.trace.Release(e.cursor)
	for _, mv := range e.metrics.Snapshot() {
		k := mv.Kind + " " + mv.Name
		if prev, seen := e.last[k]; seen && prev == mv.Value {
			continue
		}
		e.last[k] = mv.Value
		e.mseq++
		e.buf = appendMT(e.buf, e.mseq, mv)
	}
	if len(e.buf) > 0 {
		// The DR stamp leads the batch and is taken last, just before the
		// one write of both.
		e.stamp = append(strconv.AppendInt(append(e.stamp[:0], "DR "...), int64(time.Since(e.ctrl.start)), 10), '\n')
		bufs := net.Buffers{e.stamp, e.buf}
		_, _ = bufs.WriteTo(e.ctrl.conn)
	}
}

// halt stops the probe after its last sample and the exporter after its
// final drain. Safe on nil: a node may fail before it exports.
func (e *exporter) halt() {
	if e == nil {
		return
	}
	e.probe.Stop()
	close(e.stop)
	<-e.done
}

// cpuProfileWindow is how long the on-demand CPU profile samples. The
// runner waits for it before reaping the fleet.
const cpuProfileWindow = 2 * time.Second

// captureProfiles writes cpu-<id>.pprof and heap-<id>.pprof into the
// profile directory, if the node has one. Best-effort by design:
// profiling a wedged process must never make things worse, so failures
// are dropped.
func (c *Control) captureProfiles() {
	if c.profileDir == "" {
		return
	}
	if f, err := os.Create(filepath.Join(c.profileDir, fmt.Sprintf("cpu-%d.pprof", c.id))); err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			time.Sleep(cpuProfileWindow)
			pprof.StopCPUProfile()
		}
		f.Close()
	}
	c.captureHeapProfile()
}

// captureHeapProfile writes heap-<id>.pprof into the profile directory.
func (c *Control) captureHeapProfile() {
	if c.profileDir == "" {
		return
	}
	if f, err := os.Create(filepath.Join(c.profileDir, fmt.Sprintf("heap-%d.pprof", c.id))); err == nil {
		_ = pprof.Lookup("heap").WriteTo(f, 0)
		f.Close()
	}
}
