package main

// metricDef names one metric. BENCHMARK.json repeats name, unit and
// direction (and, for end-to-end metrics, the bound); names_test.go
// keeps the two lists identical.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Layer is the module the metric prices (per-layer metrics only).
	Layer string `json:"layer,omitempty"`
	// Source says where the number is read from.
	Source string `json:"source"`
	// Moves names the end-to-end metrics and workloads this layer
	// metric is predicted to move, written down before anything is
	// optimised.
	Moves string `json:"moves,omitempty"`
}

// endToEnd lists what a client of gpad sees. The same four are reported
// on every workload; each is the median of its per-round values. The two
// latencies are relative to the reference server (ref.go) measured in the
// neighbouring windows of the same slice: wall-clock milliseconds of one
// commit drift by 20-40% over minutes on this box, the ratio by 2-7%.
// lat_mean_rel is the throughput metric: in a closed loop of two callers
// requests per second are 2 / mean latency. The raw values are per-layer
// (client.lat_p50_ms, client.req_per_s, ref.lat_p50_ms, ref.req_per_s),
// as are two metrics the issue listed (README.md says why): fail_share,
// because a benchmark metric may never be 0 — failures are the run's
// failed/attempted counts and make the run incorrect — and lat_p90_ms,
// which did not repeat within the largest allowed bound on this box.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower",
		Source: "wall clock: store population (disk_warm) + gpad start to /healthz 200 + warm-up pass"},
	{Name: "lat_p50_rel", Unit: "ratio", Better: "lower",
		Source: "median client latency (send, or due time in the open loop, to last body byte) of a work window / median reference latency of the reference windows on either side of it; median over the windows of a slice"},
	{Name: "lat_mean_rel", Unit: "ratio", Better: "lower",
		Source: "the same with mean latencies: in a closed loop the inverse of throughput relative to the reference server"},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower",
		Source: "gpad VmHWM from /proc/<pid>/status at the end of the slice"},
}

// Predictions shared by several layer metrics (the interaction table in
// README.md is these strings).
const (
	movesWire    = "lat_p50_rel and lat_mean_rel on warm_bench (also warm_asm, disk_warm); flat on cold_bench where the wire is ~3% of a request; precomputed bytes should raise rss_peak_mb"
	movesBuild   = "lat_p50_rel and lat_mean_rel on warm_asm only; none on warm_bench (kernels.build_memo_ns serves it), <1% on cold_bench"
	movesSim     = "lat_p50_rel and lat_mean_rel on cold_bench, client.lat_p90_ms on mixed_open; none where service.sims_per_req is 0"
	movesRead    = "lat_p50_rel and lat_mean_rel on disk_warm"
	movesWrite   = "lat_mean_rel on cold_bench (small share)"
	movesQueue   = "client.lat_p90_ms on mixed_open only (closed loops of 2 clients on 2 workers never queue)"
	movesNone    = "no end-to-end metric (share of a request too small); report as a layer number, not a client win"
	movesContext = "context for reading the other rows; not a target"
	movesGuard   = "must not move: a change here is a failure or an exercised-path regression, not a speed-up"
)

const (
	srcClient = "load generator"
	srcTrace  = "load generator, traced rounds (net/http/httptrace spans)"
	srcStatsz = "/statsz delta over the slice"
	srcProm   = "/metrics delta over the slice"
	srcProc   = "/proc/<pid> delta over the slice"
	srcLayers = "layers pass: median self time per kernel variant of a span around the exported call"
	srcCount  = "layers pass: exact count summed over the 52 kernel variants"
)

// perLayer lists the single-layer metrics of the traced run.
var perLayer = []metricDef{
	// Client side, per workload.
	{Name: "client.samples", Unit: "count", Better: "higher", Layer: "bench", Source: srcClient, Moves: movesContext},
	{Name: "client.windows", Unit: "count", Better: "higher", Layer: "bench", Source: srcClient + ": work windows per slice, each between two reference windows", Moves: movesContext},
	{Name: "client.fail_share", Unit: "share", Better: "lower", Layer: "bench", Source: srcClient + ": failed / attempted, expected 0", Moves: movesGuard},
	{Name: "client.req_per_s", Unit: "1/s", Better: "higher", Layer: "bench", Source: srcClient + ": correct 200 responses per second of work window; raw wall clock, drifts with the box", Moves: "what lat_mean_rel moves; the fixed arrival rate on mixed_open"},
	{Name: "client.lat_p50_ms", Unit: "ms", Better: "lower", Layer: "bench", Source: srcClient + "; raw wall clock, drifts with the box", Moves: "what lat_p50_rel moves"},
	{Name: "ref.lat_p50_ms", Unit: "ms", Better: "lower", Layer: "box", Source: "median over the reference windows of the reference server's median latency", Moves: "nothing of the repository runs in it: it moves with the box, and the relative metrics divide that out"},
	{Name: "ref.req_per_s", Unit: "1/s", Better: "higher", Layer: "box", Source: "reference responses per second of reference window", Moves: "nothing of the repository runs in it: it moves with the box"},
	{Name: "client.lat_p90_ms", Unit: "ms", Better: "lower", Layer: "bench", Source: srcClient + "; demoted from end-to-end: its run-to-run spread on this box reached 29% against a largest allowed bound of 25%", Moves: "what lat_p50_rel moves, and the cold mode of mixed_open (simulate, qos queueing, fan-out)"},
	{Name: "client.lat_p99_ms", Unit: "ms", Better: "lower", Layer: "bench", Source: srcClient + "; not end-to-end: too few samples beyond it on cold slices", Moves: movesContext},
	{Name: "client.lat_max_ms", Unit: "ms", Better: "lower", Layer: "bench", Source: srcClient, Moves: movesContext},
	{Name: "client.req_bytes_mean", Unit: "B", Better: "lower", Layer: "bench", Source: srcClient, Moves: movesContext},
	{Name: "client.resp_bytes_mean", Unit: "B", Better: "lower", Layer: "gpad", Source: srcClient, Moves: movesWire},
	{Name: "client.round_spread", Unit: "share", Better: "lower", Layer: "bench", Source: srcClient + ": inter-quartile range / median of lat_mean_rel over rounds", Moves: movesContext},
	{Name: "client.late_p99_ms", Unit: "ms", Better: "lower", Layer: "bench", Source: srcClient + ": open-loop dispatcher lateness (0 on closed loops)", Moves: movesGuard},
	{Name: "client.ttfb_p50_ms", Unit: "ms", Better: "lower", Layer: "gpad", Source: srcTrace, Moves: movesWire},
	{Name: "client.read_body_p50_ms", Unit: "ms", Better: "lower", Layer: "gpad", Source: srcTrace, Moves: movesWire},
	{Name: "client.check_p50_us", Unit: "us", Better: "lower", Layer: "bench", Source: srcTrace, Moves: movesContext},
	{Name: "client.trace_overhead_share", Unit: "share", Better: "lower", Layer: "bench", Source: "traced/untraced lat_mean_rel within the traced run, minus 1", Moves: movesContext},
	{Name: "box.steal_share", Unit: "share", Better: "lower", Layer: "box", Source: "/proc/stat delta over the slice: CPU time the hypervisor gave to other guests", Moves: "everything timed, on every workload: read it before believing a difference"},
	{Name: "bench.build_s", Unit: "s", Better: "lower", Layer: "bench", Source: "wall clock of `go build ./cmd/gpad` (warm compiler cache after the first run)", Moves: movesContext},

	// gpad process and HTTP layer.
	{Name: "gpad.ready_ms", Unit: "ms", Better: "lower", Layer: "gpad", Source: "process start to first /healthz 200", Moves: "setup_s on every workload"},
	{Name: "gpad.cpu_ms_per_req", Unit: "ms", Better: "lower", Layer: "gpad", Source: srcProc + " (utime+stime)", Moves: movesWire},
	{Name: "gpad.allocs_per_req", Unit: "count", Better: "lower", Layer: "gpad", Source: srcProm + " (go_gc_heap_allocs_objects_total)", Moves: movesWire},
	{Name: "gpad.alloc_kb_per_req", Unit: "KB", Better: "lower", Layer: "gpad", Source: srcProm + " (go_gc_heap_allocs_bytes_total)", Moves: movesWire},
	{Name: "gpad.gc_cycles_per_kreq", Unit: "count", Better: "lower", Layer: "gpad", Source: srcProm + " (go_gc_cycles_total)", Moves: movesWire},
	{Name: "gpad.http_5xx", Unit: "count", Better: "lower", Layer: "gpad", Source: srcProm + " (gpa_http_requests_total)", Moves: movesGuard},
	{Name: "obs.metrics_scrape_us", Unit: "us", Better: "lower", Layer: "obs", Source: "wall clock of the end-of-slice GET /metrics", Moves: movesNone},

	// internal/service.
	{Name: "service.hit_share", Unit: "share", Better: "higher", Layer: "service", Source: srcStatsz, Moves: movesGuard},
	{Name: "service.coalesced_per_req", Unit: "count", Better: "higher", Layer: "service", Source: srcStatsz, Moves: movesQueue},
	{Name: "service.runs_per_req", Unit: "count", Better: "lower", Layer: "service", Source: srcStatsz, Moves: movesGuard},
	{Name: "service.sims_per_req", Unit: "count", Better: "lower", Layer: "service", Source: srcStatsz, Moves: movesGuard},
	{Name: "service.stage_served_per_req", Unit: "count", Better: "higher", Layer: "service", Source: srcStatsz, Moves: movesGuard},
	{Name: "service.stage_hit_share", Unit: "share", Better: "higher", Layer: "service", Source: srcStatsz, Moves: movesRead},
	{Name: "service.structure_builds", Unit: "count", Better: "lower", Layer: "service", Source: srcStatsz, Moves: movesNone},
	{Name: "service.stage_assemble_ms_mean", Unit: "ms", Better: "lower", Layer: "service", Source: srcProm + " (gpa_stage_duration_seconds sum/count)", Moves: movesBuild},
	{Name: "service.stage_simulate_ms_mean", Unit: "ms", Better: "lower", Layer: "service", Source: srcProm + " (gpa_stage_duration_seconds sum/count)", Moves: movesSim},
	{Name: "service.stage_blame_ms_mean", Unit: "ms", Better: "lower", Layer: "service", Source: srcProm + " (gpa_stage_duration_seconds sum/count)", Moves: movesNone},
	{Name: "service.stage_advise_ms_mean", Unit: "ms", Better: "lower", Layer: "service", Source: srcProm + " (gpa_stage_duration_seconds sum/count)", Moves: movesNone},
	{Name: "service.elapsed_ms_mean", Unit: "ms", Better: "lower", Layer: "service", Source: "response elapsedMs of uncached results", Moves: movesSim},

	// internal/qos.
	{Name: "qos.shed_per_req", Unit: "count", Better: "lower", Layer: "qos", Source: srcStatsz + " (shed+quotaShed+brownoutShed)", Moves: movesGuard},
	{Name: "qos.queued_end", Unit: "count", Better: "lower", Layer: "qos", Source: "/statsz queued at the end of the slice", Moves: movesQueue},
	{Name: "qos.tenant_a_served_share", Unit: "share", Better: "higher", Layer: "qos", Source: srcStatsz + " (tenants.a.served over all tenants)", Moves: movesContext},

	// internal/store.
	{Name: "store.hits_per_req", Unit: "count", Better: "higher", Layer: "store", Source: srcStatsz, Moves: movesRead},
	{Name: "store.puts_per_req", Unit: "count", Better: "lower", Layer: "store", Source: srcStatsz, Moves: movesWrite},
	{Name: "store.corrupt", Unit: "count", Better: "lower", Layer: "store", Source: srcStatsz, Moves: movesGuard},
	{Name: "store.errors", Unit: "count", Better: "lower", Layer: "store", Source: srcStatsz, Moves: movesGuard},
	{Name: "store.disk_mb", Unit: "MB", Better: "lower", Layer: "store", Source: "size of the store directory at the end of the slice", Moves: movesWrite},

	// internal/gpusim as the daemon runs it.
	{Name: "gpusim.sim_cycles_per_req", Unit: "cycles", Better: "lower", Layer: "gpusim", Source: "mean response cycles over the first 104 requests of a slice: an exact-repeat count for one seed", Moves: "must stay identical: a faster simulator may not change a simulated statistic"},
	{Name: "gpusim.cycles_per_host_ms", Unit: "cycles/ms", Better: "higher", Layer: "gpusim", Source: "sum of response cycles over sum of response elapsedMs", Moves: movesSim},
	{Name: "gpusim.ff_cycles_skipped_per_sim", Unit: "cycles", Better: "higher", Layer: "gpusim", Source: srcStatsz + " (ffCyclesSkipped/sims)", Moves: movesSim},
	{Name: "gpusim.pool_hit_share", Unit: "share", Better: "higher", Layer: "gpusim", Source: srcStatsz + " (poolHits/poolGets)", Moves: movesSim},

	// The layers pass: in-process, spans around exported calls.
	{Name: "sass.assemble_us", Unit: "us", Better: "lower", Layer: "sass", Source: srcLayers, Moves: movesBuild},
	{Name: "cubin.pack_us", Unit: "us", Better: "lower", Layer: "cubin", Source: srcLayers, Moves: movesBuild},
	{Name: "cubin.unpack_us", Unit: "us", Better: "lower", Layer: "cubin", Source: srcLayers, Moves: movesNone},
	{Name: "gpa.load_kernel_asm_us", Unit: "us", Better: "lower", Layer: "gpa", Source: srcLayers, Moves: movesBuild},
	{Name: "gpusim.load_us", Unit: "us", Better: "lower", Layer: "gpusim", Source: srcLayers, Moves: movesBuild},
	{Name: "cfg.build_us", Unit: "us", Better: "lower", Layer: "cfg", Source: srcLayers, Moves: movesNone},
	{Name: "structure.analyze_us", Unit: "us", Better: "lower", Layer: "structure", Source: srcLayers, Moves: movesNone},
	{Name: "gpusim.run_us", Unit: "us", Better: "lower", Layer: "gpusim", Source: srcLayers + " (sampling off, simSMs 1)", Moves: movesSim},
	{Name: "profiler.collect_us", Unit: "us", Better: "lower", Layer: "profiler", Source: srcLayers + " (simSMs 1)", Moves: movesSim},
	{Name: "sampling.aggregate_us", Unit: "us", Better: "lower", Layer: "sampling", Source: srcLayers, Moves: movesNone},
	{Name: "profiler.digest_us", Unit: "us", Better: "lower", Layer: "profiler", Source: srcLayers, Moves: movesNone},
	{Name: "blamer.analyze_us", Unit: "us", Better: "lower", Layer: "blamer", Source: srcLayers, Moves: movesNone},
	{Name: "advisor.build_context_us", Unit: "us", Better: "lower", Layer: "advisor", Source: srcLayers, Moves: movesNone},
	{Name: "advisor.advise_us", Unit: "us", Better: "lower", Layer: "advisor", Source: srcLayers, Moves: movesNone},
	{Name: "advisor.render_us", Unit: "us", Better: "lower", Layer: "advisor", Source: srcLayers, Moves: movesWire},
	{Name: "gpa.result_encode_us", Unit: "us", Better: "lower", Layer: "gpa", Source: srcLayers + " (Report.Result + MarshalIndent, what a warm hit pays)", Moves: movesWire},
	{Name: "store.disk_put_us", Unit: "us", Better: "lower", Layer: "store", Source: srcLayers, Moves: movesWrite},
	{Name: "store.disk_get_us", Unit: "us", Better: "lower", Layer: "store", Source: srcLayers, Moves: movesRead},
	{Name: "store.memory_get_ns", Unit: "ns", Better: "lower", Layer: "store", Source: srcLayers + ", per call of a 256-call loop", Moves: movesNone},
	{Name: "qos.acquire_ns", Unit: "ns", Better: "lower", Layer: "qos", Source: srcLayers + ", per uncontended Acquire+release of a 256-call loop", Moves: movesQueue},
	{Name: "service.do_cold_us", Unit: "us", Better: "lower", Layer: "service", Source: srcLayers + " (service.Engine.Do, first sight)", Moves: movesSim},
	{Name: "service.do_warm_ns", Unit: "ns", Better: "lower", Layer: "service", Source: srcLayers + ", per call of a 256-call loop", Moves: movesNone},
	{Name: "gpa.engine_do_warm_ns", Unit: "ns", Better: "lower", Layer: "gpa", Source: srcLayers + ", per call of a 256-call loop", Moves: movesNone},
	{Name: "kernels.build_memo_ns", Unit: "ns", Better: "lower", Layer: "kernels", Source: srcLayers + ", per call of a 256-call loop", Moves: movesNone},
	{Name: "arch.lookup_ns", Unit: "ns", Better: "lower", Layer: "arch", Source: srcLayers + ", per call of a 256-call loop", Moves: movesNone},
	{Name: "sass.instrs", Unit: "count", Better: "lower", Layer: "sass", Source: srcCount, Moves: movesContext},
	{Name: "sass.asm_bytes", Unit: "B", Better: "lower", Layer: "sass", Source: srcCount, Moves: movesContext},
	{Name: "cubin.blob_bytes", Unit: "B", Better: "lower", Layer: "cubin", Source: srcCount, Moves: movesContext},
	{Name: "gpusim.cycles", Unit: "cycles", Better: "lower", Layer: "gpusim", Source: srcCount + " (simSMs 1, seed 11)", Moves: "must stay identical: a faster simulator may not change a simulated statistic"},
	{Name: "profiler.samples", Unit: "count", Better: "lower", Layer: "profiler", Source: srcCount, Moves: "must stay identical unless sampling itself changes"},
	{Name: "gpa.result_bytes", Unit: "B", Better: "lower", Layer: "gpa", Source: srcCount, Moves: movesWire},
}
