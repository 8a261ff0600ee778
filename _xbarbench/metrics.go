package main

// metricDef names one reported metric. BENCHMARK.json lists the same
// names, units and directions (benchmark_json_test.go keeps them in
// step).
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// on names the workloads the metric applies to (empty: all). On
	// the others it is reported as 0 and printed as n/a.
	on []string
}

// endToEndMetrics are measured with tracing off. error_rate is printed
// but not among them: the result line carries it as failed/attempted,
// and any failure already fails the run.
var endToEndMetrics = []metricDef{
	{name: "setup_s", unit: "s", better: "lower"},
	{name: "throughput_ops_s", unit: "1/s", better: "higher"},
	{name: "latency_p50_ms", unit: "ms", better: "lower"},
	{name: "latency_p90_ms", unit: "ms", better: "lower"},
	{name: "peak_rss_mb", unit: "MB", better: "lower"},
	{name: "area_mean", unit: "crosspoints", better: "lower"},
}

const (
	hot    = "serve_hot"
	cold   = "synth_cold"
	bulk   = "yield_bulk"
	stream = "yield_stream"
)

// layerMetrics come from the traced run, ordered client to die.
var layerMetrics = []metricDef{
	{name: "client.self_us", unit: "us", better: "lower"},
	{name: "net.self_us", unit: "us", better: "lower"},
	{name: "net.conns_per_op", unit: "count", better: "lower"},
	{name: "httpapi.self_us", unit: "us", better: "lower"},
	{name: "httpapi.frames_per_op", unit: "count", better: "lower"},
	{name: "httpapi.flushes_per_op", unit: "count", better: "lower"},
	{name: "httpapi.us_per_frame", unit: "us", better: "lower"},
	{name: "engine.queue_wait_us", unit: "us", better: "lower"},
	{name: "engine.cache_lookup_us", unit: "us", better: "lower", on: []string{hot, bulk, stream}},
	{name: "engine.request_us", unit: "us", better: "lower"},
	{name: "engine.cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "engine.cache_evictions", unit: "count", better: "lower"},
	{name: "engine.shed", unit: "count", better: "lower"},
	{name: "engine.degraded", unit: "count", better: "lower"},
	{name: "synth.synthesize_us", unit: "us", better: "lower", on: []string{cold}},
	{name: "latsynth.covers_us", unit: "us", better: "lower"},
	{name: "latsynth.dual_us", unit: "us", better: "lower"},
	{name: "pcircuit.best_us", unit: "us", better: "lower"},
	{name: "dreduce.synthesize_us", unit: "us", better: "lower"},
	{name: "core.verify_us", unit: "us", better: "lower"},
	{name: "synth.explained_ratio", unit: "ratio", better: "higher", on: []string{cold}},
	{name: "lattice.word_blocks_per_synth", unit: "count", better: "lower", on: []string{cold}},
	{name: "yield.run_us", unit: "us", better: "lower", on: []string{bulk, stream}},
	{name: "defect.draw_us", unit: "us", better: "lower", on: []string{bulk, stream}},
	{name: "yield.fast_ratio", unit: "ratio", better: "higher", on: []string{bulk, stream}},
	{name: "bism.mean_map_attempts", unit: "count", better: "lower", on: []string{hot, bulk, stream}},
	{name: "bism.die_map_us", unit: "us", better: "lower", on: []string{hot}},
	{name: "process.alloc_kb_per_op", unit: "KiB", better: "lower"},
	{name: "process.allocs_per_op", unit: "count", better: "lower"},
	{name: "process.gc_cpu_fraction", unit: "ratio", better: "lower"},
	{name: "trace.untraced_ops_s", unit: "1/s", better: "higher"},
	{name: "trace.traced_ops_s", unit: "1/s", better: "higher"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}

// appliesTo reports whether the metric is measured on the workload.
func (d metricDef) appliesTo(workload string) bool {
	if len(d.on) == 0 {
		return true
	}
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}
