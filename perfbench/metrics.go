package main

// metricDef names a reported metric. For a per-layer metric, moves
// records which end-to-end metric it should move, on which workload:
// the prediction a change to that layer is judged against.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEnd are the untraced run's metrics. A batch job is one run to
// convergence; a serve-mix job is one POST /jobs request. The process's
// peak RSS is recorded in the run metadata, not here: on pagerank-web it
// varies with where the collector's cycles fall against the per-job
// message buffers, and spread by up to 0.25 of its median across ten
// runs, the largest bound a metric may have.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", ""},         // graph generation, inputs, compile and a warm-up job; median of at least five
	{"job_ms_p50", "ms", "lower", ""},     // median job wall time
	{"job_ms_tail", "ms", "lower", ""},    // eleventh-largest job wall time: the highest percentile with ten samples beyond it
	{"jobs_per_s", "1/s", "higher", ""},   // completed jobs per second of the measured window
	{"cpu_ms_per_job", "ms", "lower", ""}, // process user+system CPU per completed job
}

const (
	allSetup   = "setup_s on every workload"
	compileCut = "setup_s on every workload; job_ms_tail on serve-mix, where a source compiles when first seen"
	interp     = "job_ms_p50 and cpu_ms_per_job on sssp-social most, pagerank-web least"
	routing    = "job_ms_p50 on pagerank-web; barely on sssp-social"
	overhead   = "job_ms_p50 on sssp-social and serve-mix"
	serving    = "job_ms_p50 and jobs_per_s on serve-mix only"
	counts     = "exact counts: repeat across runs of a seed; a change of them is a change of the work done"
)

// perLayer are the traced run's metrics. graph, gm and core time the
// layers' public functions; machine, manual, pregel and obs come from
// passes of direct engine runs (generated untraced, generated with a
// Config.Observer span log, hand-written); serve comes from the
// workload's own load (serve-mix) or a probe of the batch query served
// by an in-process gmserve (batch workloads).
var perLayer = []metricDef{
	{"graph.gen_ms", "ms", "lower", allSetup},
	{"graph.nodes", "count", "lower", allSetup},
	{"graph.edges", "count", "lower", allSetup},
	{"gm.parse_us", "us", "lower", compileCut},
	{"gm.sema_us", "us", "lower", compileCut},
	{"gm.analysis_us", "us", "lower", compileCut},
	{"core.compile_us", "us", "lower", compileCut},
	{"core.vertex_states", "count", "lower", compileCut},
	{"core.msg_types", "count", "lower", compileCut},
	// Generated over manual median pass time on the same graph and
	// config: the paper's Figure-6 ratio. An engine speed-up can raise it.
	{"machine.overhead_ratio", "ratio", "lower", interp},
	{"machine.vertex_calls_ratio", "ratio", "lower", interp},
	{"machine.allocs_per_superstep", "count", "lower", interp},
	{"manual.job_ms_p50", "ms", "lower", "none: the engine-only reference"},
	// Message delivery after the barrier: routing, plus the gather on
	// pull supersteps (pull_steps counts those).
	{"pregel.route_ms", "ms", "lower", routing},
	{"pregel.route_eager_ms", "ms", "lower", routing},
	// Computed, not measured: messages × sizeof(pregel.Msg) × 2.
	{"pregel.msg_buffer_mb", "MiB-computed", "lower", routing},
	// The slowest worker's vertex-compute span, summed over supersteps.
	{"pregel.compute_ms", "ms", "lower", "job_ms_p50 on sssp-social"},
	{"pregel.master_ms", "ms", "lower", overhead},
	{"pregel.barrier_ms", "ms", "lower", overhead},
	{"pregel.pull_steps", "count", "lower", overhead},
	// The run span minus the master, vertex (wall time of its chunks),
	// delivery and barrier phases.
	{"pregel.unattributed_ms", "ms", "lower", overhead},
	// compute_ms over the same sum for the mean worker.
	{"pregel.compute_skew", "ratio", "lower", overhead},
	{"pregel.stolen_chunks", "count", "lower", overhead},
	{"pregel.supersteps", "count", "lower", counts},
	{"pregel.messages", "count", "lower", counts},
	{"pregel.net_bytes", "B", "lower", counts},
	{"pregel.control_bytes", "B", "lower", counts},
	{"pregel.vertex_calls", "count", "lower", counts},
	// Traced over untraced median pass time of the generated program.
	{"obs.trace_overhead_ratio", "ratio", "lower", "none: the price of a traced run"},
	{"serve.cache_hit_ratio", "ratio", "higher", serving},
	{"serve.hit_ms_p50", "ms", "lower", serving},
	{"serve.engine_ms_p50", "ms", "lower", serving},   // JobResult.ElapsedNS of misses
	{"serve.overhead_ms_p50", "ms", "lower", serving}, // miss latency minus ElapsedNS: admission, compile, encode, HTTP
	{"serve.swap_ms_p50", "ms", "lower", serving},     // POST /graphs hot-swap
	{"serve.rejected", "count", "lower", serving},     // HTTP 429 answers
}
