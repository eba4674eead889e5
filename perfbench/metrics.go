package main

// metricDef names one metric the benchmark prints. The lists below are the
// program's side of BENCHMARK.json; TestBenchmarkJSONMatchesProgram keeps
// the two in step.
type metricDef struct {
	name, unit, better string
}

// endToEnd are printed by an untraced run (--trace 0): what a user of the
// simulator sees, measured on the host with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_s", "s", "lower"},
	{"cpu_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"pass_ratio", "ratio", "higher"},
}

// perLayer are printed by a traced run (--trace 1). Spans and allocation
// deltas are measured around the benchmark's calls into each layer; the
// "count" metrics are the simulation's deterministic counters, which repeat
// exactly for a given seed; cpu.* are CPU-profile shares (see cpuprof.go).
// A metric a workload does not exercise reads 0.
var perLayer = []metricDef{
	{"harness.inputs_s", "s", "lower"},
	{"harness.new_experiment_s", "s", "lower"},
	{"harness.experiment_s", "s", "lower"},
	{"dirv3.generate_s", "s", "lower"},
	{"syncdir.generate_s", "s", "lower"},
	{"core.generate_s", "s", "lower"},
	{"dirv3.alloc_mb", "MB", "lower"},
	{"syncdir.alloc_mb", "MB", "lower"},
	{"core.alloc_mb", "MB", "lower"},
	{"dircache.run_s", "s", "lower"},
	{"dircache.alloc_mb", "MB", "lower"},
	{"dircache.mallocs", "count", "lower"},
	{"client.timeline_s", "s", "lower"},
	{"simnet.events", "count", "lower"},
	{"simnet.events_per_s", "1/s", "higher"},
	{"simnet.messages", "count", "lower"},
	{"simnet.bytes_mb", "MB", "lower"},
	{"dircache.race_timeouts", "count", "lower"},
	{"dircache.retry_bursts", "count", "lower"},
	{"dircache.failed_fetches", "count", "lower"},
	{"dircache.cache_fallbacks", "count", "lower"},
	{"dircache.cache_egress_mb", "MB", "lower"},
	{"dircache.race_waste_ratio", "ratio", "lower"},
	{"gossip.pushes", "count", "lower"},
	{"gossip.pulls", "count", "lower"},
	{"gossip.bytes_mb", "MB", "lower"},
	{"gossip.caches_from_peers", "count", "higher"},
	{"faults.events", "count", "lower"},
	{"faults.retry_dropped", "count", "lower"},
	{"client.extra_fetches", "count", "lower"},
	{"client.stale_rejections", "count", "lower"},
	{"client.forks_detected", "count", "higher"},
	{"cpu.sha256_share", "ratio", "lower"},
	{"cpu.ed25519_share", "ratio", "lower"},
	{"cpu.vote_share", "ratio", "lower"},
	{"cpu.fmt_share", "ratio", "lower"},
	{"cpu.protocol_share", "ratio", "lower"},
	{"cpu.simnet_share", "ratio", "lower"},
	{"cpu.dircache_share", "ratio", "lower"},
	{"cpu.gossip_share", "ratio", "lower"},
	{"cpu.gc_share", "ratio", "lower"},
	{"cpu.malloc_share", "ratio", "lower"},
	{"cpu.runtime_share", "ratio", "lower"},
	{"cpu.other_share", "ratio", "lower"},
	{"trace.overhead_s", "s", "lower"},
}
