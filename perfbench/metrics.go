package main

// metricDef is one reported metric. BENCHMARK.json lists the same
// names, units and directions (a test keeps the two equal); moves
// records, for a per-layer metric, which end-to-end metric on which
// workload it should move, so a claimed layer gain names where to look.
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: allowed worsening, as a share of the parent's median
	moves              string  // per-layer only
}

// endToEnd are the metrics a user of gccache sees, reported by an
// untraced run on every workload. error_rate is not among them because
// it is 0 whenever the run is sound; it is the failed/attempted pair of
// the result line and is printed beside the metrics.
var endToEnd = []metricDef{
	{name: "throughput_rps", unit: "req/s", better: "higher", bound: 0.25},
	{name: "miss_ratio", unit: "ratio", better: "lower", bound: 0.1},
	{name: "latency_p50_us", unit: "us", better: "lower", bound: 0.25},
	{name: "latency_p99_us", unit: "us", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "heap_mb", unit: "MB", better: "lower", bound: 0.1},
}

// perLayer are the metrics a traced run reports. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{name: "core.access_ns", unit: "ns", better: "lower", moves: "throughput_rps on serve-engine (hit path) and serve-cluster-tuned (miss path)"},
	{name: "core.hit_ns", unit: "ns", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "core.miss_ns", unit: "ns", better: "lower", moves: "throughput_rps, latency_p50_us on serve-cluster-tuned"},
	{name: "core.items_loaded_per_miss", unit: "count", better: "lower", moves: "miss_ratio, throughput_rps on serve-cluster-tuned"},
	{name: "core.evictions_per_miss", unit: "count", better: "lower", moves: "miss_ratio, throughput_rps on serve-cluster-tuned"},
	{name: "core.prefetch_use_frac", unit: "ratio", better: "higher", moves: "miss_ratio on serve-engine"},
	{name: "cachesim.observe_ns", unit: "ns", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "cachesim.spatial_hit_frac", unit: "ratio", better: "higher", moves: "miss_ratio on serve-engine"},
	{name: "autotune.observe_ns_per_req", unit: "ns", better: "lower", moves: "throughput_rps, latency_p50_us on serve-cluster-tuned"},
	{name: "autotune.events_per_req", unit: "count", better: "lower", moves: "throughput_rps on serve-cluster-tuned"},
	{name: "autotune.apply_ns", unit: "ns", better: "lower", moves: "throughput_rps on serve-cluster-tuned"},
	{name: "autotune.windows", unit: "count/Mreq", better: "higher", moves: "miss_ratio on serve-cluster-tuned"},
	{name: "autotune.resizes", unit: "count/Mreq", better: "lower", moves: "throughput_rps, miss_ratio on serve-cluster-tuned"},
	{name: "concurrent.round_ms", unit: "ms", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "concurrent.policy_ns_per_req", unit: "ns", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "concurrent.engine_self_ns_per_req", unit: "ns", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "concurrent.accesses_per_lock", unit: "count", better: "higher", moves: "throughput_rps on serve-engine"},
	{name: "concurrent.lock_contended_frac", unit: "ratio", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "concurrent.shard_skew", unit: "ratio", better: "lower", moves: "throughput_rps on serve-engine"},
	{name: "ring.route_ns_per_item", unit: "ns", better: "lower", moves: "throughput_rps on serve-cluster-tuned"},
	{name: "cluster.node_apply_us", unit: "us", better: "lower", moves: "latency_p50_us on serve-cluster-tuned"},
	{name: "cluster.wire_self_us", unit: "us", better: "lower", moves: "latency_p50_us on serve-cluster-tuned"},
	{name: "cluster.attempts_per_batch", unit: "count", better: "lower", moves: "latency_p99_us on serve-cluster-tuned"},
	{name: "cluster.retried_frac", unit: "ratio", better: "lower", moves: "latency_p99_us on serve-cluster-tuned"},
	{name: "cluster.failovers", unit: "count", better: "lower", moves: "latency_p99_us on serve-cluster-tuned"},
	{name: "cluster.breaker_skips", unit: "count", better: "lower", moves: "latency_p99_us on serve-cluster-tuned"},
	{name: "runtime.allocs_per_req", unit: "count", better: "lower", moves: "latency_p99_us on serve-cluster-tuned, throughput_rps on serve-engine"},
	{name: "runtime.alloc_bytes_per_req", unit: "B", better: "lower", moves: "latency_p99_us on serve-cluster-tuned, throughput_rps on serve-engine"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", moves: "latency_p99_us on serve-cluster-tuned, throughput_rps on serve-engine"},
	{name: "setup.input_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
	{name: "setup.build_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
	{name: "setup.warmup_s", unit: "s", better: "lower", moves: "setup_s on every workload"},
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", moves: "none: checks the ladder itself"},
	{name: "trace.unattributed_frac", unit: "ratio", better: "lower", moves: "none: checks the ladder itself"},
}
