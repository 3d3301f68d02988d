package main

import (
	"fmt"
	"os"
	goruntime "runtime"
	"time"
)

// endToEndValues turns one untraced window into the end-to-end metrics.
func endToEndValues(r *run, w window) map[string]float64 {
	ops := float64(w.ops)
	perCall := float64(r.spec.perCall)
	return map[string]float64{
		"setup_s":            medianSeconds(r.setups),
		"ops_per_s":          perCall / fastQuarterMean(r.calls).Seconds(),
		"ops_per_cpu_s":      perCall / fastQuarterMean(r.callCPU).Seconds(),
		"allocs_per_op":      float64(w.mallocs) / ops,
		"alloc_kb_per_op":    float64(w.bytes) / 1024 / ops,
		"peak_heap_mb":       float64(r.peakHeap) / (1 << 20),
		"wire_frames_per_op": float64(w.delta[cFrames]) / ops,
		"wire_bytes_per_op":  float64(w.delta[cBytes]) / ops,
		"rounds_to_decide":   float64(r.rounds),
	}
}

// result is what one pass of one workload reports.
type result struct {
	attempted int
	failed    int
	err       error // first failed op or guard, nil when correct
	values    map[string]float64
	samples   int    // timed API calls behind the call-time statistics
	spans     []span // traced pass only
}

// runEndToEnd is the untraced pass: the public API with tracing and
// telemetry off, repeated cold builds, warm-up, then calls for limit.
func runEndToEnd(s spec, seed int64, limit time.Duration, maxCalls int) (result, error) {
	r := &run{spec: s, seed: seed}
	if err := r.setup(setupRepeats, setupMax); err != nil {
		return result{}, err
	}
	w, err := r.measure(limit, maxCalls)
	if err != nil {
		return result{}, err
	}
	return result{
		attempted: w.ops, failed: r.failed, err: r.firstFail,
		values: endToEndValues(r, w), samples: len(r.calls),
	}, nil
}

// drift is the driver-drift guard: the simulation is deterministic, so the
// traced mirror must put exactly the public API's traffic on the wire and
// decide in the same rounds. Any difference means the mirror drivers no
// longer do what the library's do, and the layer numbers describe some
// other program.
func drift(api, tr *run, wa, wt window) error {
	if wa.ops == wt.ops && wa.delta[cFrames] == wt.delta[cFrames] && wa.delta[cBytes] == wt.delta[cBytes] && api.rounds == tr.rounds {
		return nil
	}
	return fmt.Errorf("%s: driver drift: over %d ops the public API sent %d frames / %d bytes and decided by round %d; over %d ops the traced mirror sent %d / %d and decided by round %d",
		api.spec.name, wa.ops, wa.delta[cFrames], wa.delta[cBytes], api.rounds, wt.ops, wt.delta[cFrames], wt.delta[cBytes], tr.rounds)
}

// runLayers is the traced pass. It first runs the workload untraced over
// the public API for a quarter of the budget, then re-runs the same calls
// (same seed, same count) through the bench's mirror drivers with the
// shims recording, checks that the two passes put the same traffic on the
// wire in the same rounds, and finally runs the direct-call probes on the
// mix the shims captured.
func runLayers(s spec, seed int64, budget time.Duration, maxCalls int) (result, error) {
	api := &run{spec: s, seed: seed}
	if err := api.setup(1, 1); err != nil {
		return result{}, err
	}
	wa, err := api.measure(budget/4, maxCalls)
	if err != nil {
		return result{}, err
	}
	api.sim = nil

	rec, cp := newRecorder(8), newCapture()
	tr := &run{spec: s, seed: seed, rec: rec, cap: cp}
	if err = tr.setup(1, 1); err != nil {
		return result{}, err
	}
	wt, err := tr.measure(time.Duration(1<<62), len(api.calls))
	if err != nil {
		return result{}, err
	}
	tr.sim = nil

	res := result{attempted: wa.ops + wt.ops, failed: api.failed + tr.failed, spans: rec.kept, samples: len(tr.calls)}
	switch {
	case api.firstFail != nil:
		res.err = api.firstFail
	case tr.firstFail != nil:
		res.err = fmt.Errorf("traced pass: %w", tr.firstFail)
	default:
		if res.err = drift(api, tr, wa, wt); res.err != nil {
			res.failed++
		}
	}

	ops := float64(wt.ops)
	perOpMs := func(d time.Duration) float64 { return ms(d) / ops }
	perCount := func(d time.Duration, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(n)
	}
	count := func(c counter) float64 { return float64(wt.delta[c]) / ops }
	// Layer figures are plain per-op means of a window, so that the layers
	// add up to its wall time; shares are taken of the untraced mean.
	untracedMsPerOp := ms(wa.wall) / float64(wa.ops)
	perCall := float64(s.perCall)

	hostSelf := rec.self[spHostMulticast] + rec.self[spHostSend] + rec.self[spHostSendAck] + rec.self[spHostFlush]
	runtimeSelfMs := perOpMs(hostSelf + rec.self[spHandler] + rec.self[spAfter])
	var accounted time.Duration
	for _, d := range rec.self {
		accounted += d
	}

	frameSizes := sizeQuantiles(cp.frameSizes, 512)
	frameBytes := make([]float64, len(frameSizes))
	for i, b := range frameSizes {
		frameBytes[i] = float64(b)
	}
	sealNs, openNs, err := probeChannel(s.real, frameSizes)
	if err != nil {
		return result{}, fmt.Errorf("channel probe: %w", err)
	}
	framesPerOp := count(cFrames)
	channelMs := (sealNs + openNs) * framesPerOp / 1e6

	x100, err := probeXcrypto(100, 20000)
	if err != nil {
		return result{}, fmt.Errorf("xcrypto probe: %w", err)
	}
	x64k, err := probeXcrypto(64<<10, 200)
	if err != nil {
		return result{}, fmt.Errorf("xcrypto probe: %w", err)
	}

	wc, err := probeWire(cp.msgs)
	if err != nil {
		return result{}, fmt.Errorf("wire probe: %w", err)
	}
	// One encode per multicast or send, one decode per delivery, and one
	// encoded and decoded ACK per acknowledgment. Frame-cumulative ACKs
	// stand for many acknowledgments each, so on erb_mux this overstates
	// the ACK share.
	encodes := float64(rec.count[spHostMulticast]+rec.count[spHostSend]) / ops
	wireMs := (encodes*wc.encNs + count(cDelivered)*wc.decNs + count(cAcksSent)*wc.ackEncNs + count(cAcksReceived)*wc.ackDecNs) / 1e6

	sc, err := probeSetup(s.real)
	if err != nil {
		return result{}, fmt.Errorf("setup probe: %w", err)
	}

	telPerCall, telEvents, err := probeTelemetry(s, seed, budget/8, min(20, len(api.calls)))
	if err != nil {
		return result{}, fmt.Errorf("telemetry probe: %w", err)
	}

	tcp, err := probeTCP(frameSizes)
	if err != nil {
		// No workload runs over tcpnet, so a host without usable loopback
		// loses these three baseline readings (they read 0), not the pass.
		fmt.Fprintln(os.Stderr, "bench: tcpnet probe skipped:", err)
	}

	// The cold builds of this process: the public-API cluster and the
	// mirror (kindChainCold: one per op in each pass).
	setupS := medianSeconds(append(append([]time.Duration(nil), api.setups...), tr.setups...))
	n := float64(s.n)
	links := n * (n - 1) / 2
	// deploy.New fans the per-node work out over GOMAXPROCS workers.
	attributedS := (n*sc.launchUs + n*sc.attestVerifyUs + n*(n-1)*sc.newLinkUs) / 1e6 / float64(goruntime.GOMAXPROCS(0))

	res.values = map[string]float64{
		"trace.overhead_ratio":  float64(wt.wall) / float64(wa.wall), // the same calls in both passes
		"trace.spans_per_op":    float64(rec.spans()) / ops,
		"trace.accounted_share": float64(accounted) / float64(wt.wall),

		"driver.window_ops_per_s": segmentRate(api.calls, s.perCall, 5),
		"driver.op_ms_p50":        percentile(millis(api.calls), 0.50),
		"driver.op_ms_p90":        percentile(millis(api.calls), 0.90),
		"driver.op_ms_p99":        percentile(millis(api.calls), 0.99),

		"core.on_message_self_ms_per_op": perOpMs(rec.self[spOnMessage]),
		"core.on_round_self_ms_per_op":   perOpMs(rec.self[spOnRound]),
		"core.on_finish_self_ms_per_op":  perOpMs(rec.self[spOnFinish]),
		"core.on_message_calls_per_op":   float64(rec.count[spOnMessage]) / ops,
		"core.ns_per_message":            perCount(rec.self[spOnMessage], rec.count[spOnMessage]),
		"core.engine_build_ms_per_op":    perOpMs(rec.self[spBuild]),
		"core.collect_ms_per_op":         perOpMs(rec.self[spCollect]),

		"runtime.host_call_self_ms_per_op": perOpMs(hostSelf),
		"runtime.recv_path_self_ms_per_op": perOpMs(rec.self[spHandler]),
		"runtime.tick_self_ms_per_op":      perOpMs(rec.self[spAfter]),
		"runtime.msgs_delivered_per_op":    count(cDelivered),
		"runtime.acks_sent_per_op":         count(cAcksSent),
		"runtime.acks_received_per_op":     count(cAcksReceived),
		"runtime.msgs_per_frame":           (count(cDelivered) + count(cAcksReceived)) / framesPerOp,
		"runtime.halts_per_op":             count(cHalts),
		"runtime.send_failures_per_op":     count(cSendFailures),
		"runtime.auth_failures_per_op":     count(cAuthFailures),
		"runtime.round_mismatches_per_op":  count(cRoundMismatches),
		"runtime.early_buffered_per_op":    count(cEarlyBuffered),
		"runtime.est_self_ms_per_op":       runtimeSelfMs - channelMs - wireMs,

		"channel.frame_bytes_p50":   percentile(frameBytes, 0.50),
		"channel.frame_bytes_p99":   percentile(frameBytes, 0.99),
		"channel.seal_ns_per_frame": sealNs,
		"channel.open_ns_per_frame": openNs,
		"channel.est_ms_per_op":     channelMs,
		"channel.est_share":         channelMs / untracedMsPerOp,
		"channel.newlink_us":        sc.newLinkUs,

		"xcrypto.seal_open_ns_100b":   x100,
		"xcrypto.seal_open_ns_per_kb": x64k / 64,

		"wire.encode_ns_per_msg": wc.encNs,
		"wire.decode_ns_per_msg": wc.decNs,
		"wire.msg_bytes_p50":     wc.bytesP50,
		"wire.est_ms_per_op":     wireMs,

		"simnet.send_self_ms_per_op": perOpMs(rec.self[spSend]),
		"simnet.send_ns_per_frame":   perCount(rec.self[spSend], rec.count[spSend]),
		"simnet.late_per_op":         count(cLate),
		"simnet.dropped_per_op":      count(cDropped),

		"vclock.events_per_op":           count(cFired),
		"vclock.dispatch_self_ms_per_op": perOpMs(rec.self[spRun]),
		"vclock.ns_per_event":            perCount(rec.self[spRun], wt.delta[cFired]),

		"enclave.launch_us":        sc.launchUs,
		"enclave.attest_verify_us": sc.attestVerifyUs,

		"deploy.setup_us_per_link":        setupS * 1e6 / links,
		"deploy.setup_unattributed_share": 1 - attributedS/setupS,

		"telemetry.record_ratio":  ms(telPerCall) / perCall / untracedMsPerOp,
		"telemetry.events_per_op": telEvents,

		"tcpnet.pump_frames_per_s": tcp.pumpPerS,
		"tcpnet.rtt_us_p50":        tcp.rttUsP50,
		"tcpnet.queue_drops":       float64(tcp.drops),
	}
	return res, nil
}
