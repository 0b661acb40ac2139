package main

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent commit's median by which an end-to-end metric may worsen
// before a change counts as a regression; per-layer metrics have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is how long one run measures; BENCHMARK.json records it.
const runSeconds = 15

// endToEnd is what a user of vbrun/vbcc/vbserve sees, measured with
// tracing off and reported per workload. One op is one run of a
// compiled plan, one core.Compile, or one served job.
var endToEnd = []metricDef{
	{"op_ms_p50", "ms", "lower", 0.15},
	{"op_ms_p90", "ms", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.20},
	{"alloc_kb_per_op", "KB", "lower", 0.05},
	{"allocs_per_op", "count", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is the ledger of the traced pass. The prefix is the module;
// every value is a span around, or a difference between, calls into
// public functions made from this directory. A metric that does not
// apply to a workload (jobs.* on a batch run, interp.run_full_ms on a
// timing-mode workload) reads 0 there.
var perLayer = []metricDef{
	{Name: "f77.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.inline_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.const_prop_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.induction_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.parallel_detect_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.partition_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.spmdize_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.scatter_collect_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.grain_opt_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.coalesce_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.avpg_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.env_gen_ms", Unit: "ms", Better: "lower"},
	{Name: "postpass.grain_select_ms", Unit: "ms", Better: "lower"},
	{Name: "core.other_pass_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.compile_alloc_kb", Unit: "KB", Better: "lower"},
	{Name: "postpass.regions", Unit: "count", Better: "lower"},
	{Name: "postpass.comm_ops_planned", Unit: "count", Better: "lower"},
	{Name: "interp.run_full_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.run_timing_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.full_minus_timing_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.seq_full_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.comm_ops", Unit: "count", Better: "lower"},
	{Name: "mpi.comm_bytes", Unit: "B", Better: "lower"},
	{Name: "mpi.comm_virtual_ms", Unit: "ms", Better: "lower"},
	{Name: "mpi.host_ns_per_comm_op", Unit: "ns", Better: "lower"},
	{Name: "sim.virtual_elapsed_ms", Unit: "ms", Better: "lower"},
	{Name: "cluster.new_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},
	{Name: "trace.record_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "jobs.queued_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.compile_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.run_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.total_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.http_overhead_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "jobs.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "jobs.cold_compiles", Unit: "count", Better: "lower"},
	{Name: "jobs.shed", Unit: "count", Better: "lower"},
	{Name: "jobs.retries", Unit: "count", Better: "lower"},
	{Name: "jobs.plankey_us", Unit: "us", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.mutex_wait_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.sched_latency_ms_p90", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
}

// exactLayer names the per-layer counts that must be identical between
// any two runs of commits that do not change the model, whatever the
// seed; -selfcheck compares them.
var exactLayer = []string{
	"postpass.regions", "postpass.comm_ops_planned", "mpi.comm_ops", "mpi.comm_bytes",
	"mpi.comm_virtual_ms", "sim.virtual_elapsed_ms", "trace.events",
}

// manifest is the content of BENCHMARK.json, generated from the tables
// above so that the file and the program cannot disagree.
func manifest() any {
	type namedWhy struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	type bounded struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	}
	m := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []namedWhy  `json:"workloads"`
		EndToEnd   []bounded   `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		m.Workloads = append(m.Workloads, namedWhy{w.name, w.why})
	}
	for _, d := range endToEnd {
		m.EndToEnd = append(m.EndToEnd, bounded{d.Name, d.Unit, d.Better, d.Bound})
	}
	return m
}
