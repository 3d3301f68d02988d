package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"sgxp2p/internal/telemetry"
)

// exportInterval is how often the exporter drains new telemetry into its
// sinks. Short enough that the orchestrator's per-round percentiles track
// the fleet live and a SIGKILLed node's file ends within a fraction of a
// round of its death, long enough that a node issues a handful of writes
// per round, not per event.
const exportInterval = 200 * time.Millisecond

// exporter is the node's one telemetry exporter: a goroutine that drains
// the tracer with a Since cursor, feeds every configured sink and releases
// what it shipped, so the tracer holds at most one interval's events.
//
// file is the -trace sink: each drain's events are appended as whole JSONL
// lines in one Write, so the file is strictly parseable after any drain —
// a SIGKILLed node leaves everything up to its last one.
//
// ctrl is the -stream sink: the same lines framed onto the scenario
// control connection, plus the metric rows whose value changed:
//
//	EV <seq> <event-jsonl>          sequence-numbered trace events
//	MT <seq> <kind> <name> <value>  metric rows whose value changed
//
// The event seq is the tracer's own stream sequence (telemetry.Event.Seq),
// so a consumer can detect gaps. The exporter never blocks the protocol: it
// reads snapshots outside the runtime's event loop and owns no locks the
// hot path touches. Stop runs the final drain; the exit, FAIL and SIGTERM
// paths all go through it.
type exporter struct {
	trace   *telemetry.Tracer
	metrics *telemetry.Metrics
	file    *os.File     // nil without -trace
	ctrl    *controlConn // nil without -stream
	errs    *telemetry.Counter

	stop chan struct{}
	done chan struct{}
	once sync.Once

	cursor uint64
	failed uint64 // events MarshalEvent rejected: holes in every sink
	err    error  // first file write/close error
	buf    []byte
	mseq   uint64
	last   map[string]float64
}

// startExporter begins draining trace into file and ctrl (either may be
// nil, not both).
func startExporter(trace *telemetry.Tracer, metrics *telemetry.Metrics, file *os.File, ctrl *controlConn) *exporter {
	e := &exporter{
		trace: trace, metrics: metrics, file: file, ctrl: ctrl,
		errs: metrics.Counter("telemetry_export_errors_total"),
		stop: make(chan struct{}), done: make(chan struct{}),
		last: make(map[string]float64),
	}
	go e.loop()
	return e
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
			if e.file != nil {
				e.keepErr(e.file.Close())
			}
			return
		}
	}
}

func (e *exporter) keepErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

// drain ships every event recorded since the last drain to each sink,
// releases them, and streams every metric row whose value changed.
func (e *exporter) drain() {
	events := e.trace.Since(e.cursor)
	e.buf = e.buf[:0]
	for _, ev := range events {
		line, err := telemetry.MarshalEvent(ev)
		if err != nil {
			e.failed++
			e.errs.Inc()
			continue
		}
		if e.file != nil {
			e.buf = append(append(e.buf, line...), '\n')
		}
		if e.ctrl != nil {
			e.ctrl.StreamEvent(ev.Seq, line)
		}
	}
	if len(e.buf) > 0 {
		_, werr := e.file.Write(e.buf)
		e.keepErr(werr)
	}
	e.cursor += uint64(len(events))
	e.trace.Release(e.cursor)
	if e.ctrl == nil {
		return
	}
	for _, mv := range e.metrics.Snapshot() {
		k := mv.Kind + " " + mv.Name
		if prev, seen := e.last[k]; seen && prev == mv.Value {
			continue
		}
		e.last[k] = mv.Value
		e.mseq++
		e.ctrl.StreamMetric(e.mseq, mv)
	}
}

// Stop drains one final time, closes the trace file and halts the
// exporter, returning the first file error of the run. Safe on nil and
// safe to call twice — the fail path and the signal handler both run it.
func (e *exporter) Stop() error {
	if e == nil {
		return nil
	}
	e.once.Do(func() { close(e.stop) })
	<-e.done
	return e.err
}

// watchProfileRequests reads control lines after the barrier released us:
// a PROF line from the orchestrator (sent when an invariant fails or a
// node times out) captures CPU and heap profiles into dir. The goroutine
// owns the control reader from here on — nothing else reads after
// AwaitStart — and exits when the connection closes.
func watchProfileRequests(ctrl *controlConn, dir string, id int) {
	if ctrl == nil || dir == "" {
		return
	}
	go func() {
		for {
			line, err := ctrl.ReadVerbLine()
			if err != nil {
				return
			}
			if line == "PROF" {
				captureProfiles(dir, id)
			}
		}
	}()
}

// cpuProfileWindow is how long the on-demand CPU profile samples. The
// orchestrator waits for it before reaping the fleet.
const cpuProfileWindow = 2 * time.Second

// captureProfiles writes cpu-<id>.pprof and heap-<id>.pprof into dir.
// Best-effort by design: profiling a wedged process must never make
// things worse, so failures only log.
func captureProfiles(dir string, id int) {
	cpuPath := filepath.Join(dir, fmt.Sprintf("cpu-%d.pprof", id))
	if f, err := os.Create(cpuPath); err == nil {
		if err := pprof.StartCPUProfile(f); err == nil {
			time.Sleep(cpuProfileWindow)
			pprof.StopCPUProfile()
		}
		f.Close()
	}
	captureHeapProfile(dir, id)
}

// captureHeapProfile writes heap-<id>.pprof into dir — also called by the
// node's own failure path, so a FAIL always leaves a heap snapshot even
// when the orchestrator never asks.
func captureHeapProfile(dir string, id int) {
	if dir == "" {
		return
	}
	path := filepath.Join(dir, fmt.Sprintf("heap-%d.pprof", id))
	f, err := os.Create(path)
	if err != nil {
		return
	}
	_ = pprof.Lookup("heap").WriteTo(f, 0)
	f.Close()
}
