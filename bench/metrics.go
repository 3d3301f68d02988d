package main

// metricDef names one metric the binary emits. BENCHMARK.json repeats
// these (plus the regression bounds, which live only there);
// TestBenchmarkJSONMatchesBinary keeps the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics a user of the library would see, measured on
// every workload with tracing and telemetry off. failed_ops is not in the
// list: it is the result line's "failed" field.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"ops_per_s", "1/s", "higher"},
	{"ops_per_cpu_s", "1/s", "higher"},
	{"allocs_per_op", "count", "lower"},
	{"alloc_kb_per_op", "KiB", "lower"},
	{"peak_heap_mb", "MiB", "lower"},
	{"wire_frames_per_op", "count", "lower"},
	{"wire_bytes_per_op", "B", "lower"},
	{"rounds_to_decide", "rounds", "lower"},
}

// perLayer are the metrics of single layers, from the traced pass and the
// probes. Names are <module>.<metric>; est_ marks a product of a probe and
// a count rather than a measurement.
var perLayer = []metricDef{
	{"trace.overhead_ratio", "ratio", "lower"},
	{"trace.spans_per_op", "count", "lower"},
	{"trace.accounted_share", "ratio", "higher"},
	{"driver.window_ops_per_s", "1/s", "higher"},
	{"driver.op_ms_p50", "ms", "lower"},
	{"driver.op_ms_p90", "ms", "lower"},
	{"driver.op_ms_p99", "ms", "lower"},

	{"core.on_message_self_ms_per_op", "ms", "lower"},
	{"core.on_round_self_ms_per_op", "ms", "lower"},
	{"core.on_finish_self_ms_per_op", "ms", "lower"},
	{"core.on_message_calls_per_op", "count", "lower"},
	{"core.ns_per_message", "ns", "lower"},
	{"core.engine_build_ms_per_op", "ms", "lower"},
	{"core.collect_ms_per_op", "ms", "lower"},

	{"runtime.host_call_self_ms_per_op", "ms", "lower"},
	{"runtime.recv_path_self_ms_per_op", "ms", "lower"},
	{"runtime.tick_self_ms_per_op", "ms", "lower"},
	{"runtime.msgs_delivered_per_op", "count", "lower"},
	{"runtime.acks_sent_per_op", "count", "lower"},
	{"runtime.acks_received_per_op", "count", "lower"},
	{"runtime.msgs_per_frame", "ratio", "higher"},
	{"runtime.halts_per_op", "count", "lower"},
	{"runtime.send_failures_per_op", "count", "lower"},
	{"runtime.auth_failures_per_op", "count", "lower"},
	{"runtime.round_mismatches_per_op", "count", "lower"},
	{"runtime.early_buffered_per_op", "count", "lower"},
	{"runtime.est_self_ms_per_op", "ms", "lower"},

	{"channel.frame_bytes_p50", "B", "lower"},
	{"channel.frame_bytes_p99", "B", "lower"},
	{"channel.seal_ns_per_frame", "ns", "lower"},
	{"channel.open_ns_per_frame", "ns", "lower"},
	{"channel.est_ms_per_op", "ms", "lower"},
	{"channel.est_share", "ratio", "lower"},
	{"channel.newlink_us", "us", "lower"},

	{"xcrypto.seal_open_ns_100b", "ns", "lower"},
	{"xcrypto.seal_open_ns_per_kb", "ns", "lower"},

	{"wire.encode_ns_per_msg", "ns", "lower"},
	{"wire.decode_ns_per_msg", "ns", "lower"},
	{"wire.msg_bytes_p50", "B", "lower"},
	{"wire.est_ms_per_op", "ms", "lower"},

	{"simnet.send_self_ms_per_op", "ms", "lower"},
	{"simnet.send_ns_per_frame", "ns", "lower"},
	{"simnet.late_per_op", "count", "lower"},
	{"simnet.dropped_per_op", "count", "lower"},

	{"vclock.events_per_op", "count", "lower"},
	{"vclock.dispatch_self_ms_per_op", "ms", "lower"},
	{"vclock.ns_per_event", "ns", "lower"},

	{"enclave.launch_us", "us", "lower"},
	{"enclave.attest_verify_us", "us", "lower"},

	{"deploy.setup_us_per_link", "us", "lower"},
	{"deploy.setup_unattributed_share", "ratio", "lower"},

	{"telemetry.record_ratio", "ratio", "lower"},
	{"telemetry.events_per_op", "count", "lower"},

	{"tcpnet.pump_frames_per_s", "1/s", "higher"},
	{"tcpnet.rtt_us_p50", "us", "lower"},
	{"tcpnet.queue_drops", "count", "lower"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report attaches units to values and checks that exactly the metrics of
// defs were produced, so a metric cannot be dropped or misspelt silently.
func report(defs []metricDef, values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			panic("bench: metric " + d.name + " was not measured")
		}
		out[d.name] = metric{Value: v, Unit: d.unit}
	}
	if len(values) != len(defs) {
		panic("bench: a measured metric is missing from the metric table")
	}
	return out
}
