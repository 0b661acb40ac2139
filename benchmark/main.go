// Command benchmark is the repository's benchmark: six workloads over
// the compiler → postpass → interp → mpi → vbserve stack, end-to-end
// metrics measured with tracing off, and a per-layer ledger from a
// separate traced run. It edits nothing inside the program: every
// number is a span around, or a difference between, calls into public
// functions. See README.md in this directory.
//
//	go run ./benchmark                      all workloads, each in a child process
//	go run ./benchmark -selfcheck           the suite twice, compared against the bounds
//	go run ./benchmark -workload mm_full -seed 7 -seconds 10 -trace 0
//
// The last form is what benchmark/run.sh runs for the driver; its last
// line of output is one JSON object.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"

	"vbuscluster/internal/core"
	"vbuscluster/internal/jobs"
)

// A run sets up at least minSetups times, then again until setupBudget
// is spent or maxSetups is reached; setup_s is the median. Cheap
// set-ups are the noisy ones and get the most repetitions.
const (
	minSetups   = 3
	maxSetups   = 9
	setupBudget = 2500 * time.Millisecond
)

// childTimeout bounds one child process; a child that exceeds it has
// all its ops marked failed.
const childTimeout = 170 * time.Second

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object a single-workload run prints last.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	firstErr error // why the first failed op failed, for the printed report
}

// runConfig selects one single-workload run.
type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups bounds the set-up repetitions from below and above.
	setups [2]int
	outDir string
}

func main() {
	var (
		cfg       runConfig
		trace     int
		selfcheck bool
		update    bool
		printMan  bool
	)
	flag.StringVar(&cfg.workload, "workload", "", "run this workload in this process and print its JSON result last")
	flag.Uint64Var(&cfg.seed, "seed", 1, "workload seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", runSeconds, "how long one run measures")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run")
	flag.BoolVar(&selfcheck, "selfcheck", false, "run the suite twice and compare the two against the bounds")
	flag.BoolVar(&update, "update-golden", false, "regenerate "+goldenPath+" (run from the repo root)")
	flag.BoolVar(&printMan, "manifest", false, "print the content of BENCHMARK.json")
	flag.Parse()
	cfg.trace = trace != 0
	cfg.setups = [2]int{minSetups, maxSetups}
	cfg.outDir = "benchmark/out"

	switch {
	case printMan:
		data, err := json.MarshalIndent(manifest(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
	case update:
		if err := updateGolden(cfg.seed); err != nil {
			fatal(err)
		}
	case cfg.workload != "":
		res, err := runOne(cfg, os.Stdout)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	case selfcheck:
		if !selfCheck(cfg) {
			os.Exit(1)
		}
	default:
		if _, ok := runSuite(cfg); !ok {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

// setUp prepares the workload repeatedly, closing all but the last
// instance, and returns that instance with the median set-up time in
// seconds. Set-up is generation, compile, reference runs, golden
// verification and warm-up: work a change moves out of the op lands
// here and shows.
func setUp(w workload, cfg runConfig, g *golden) (*instance, float64, error) {
	var inst *instance
	var took []float64
	start := time.Now()
	for r := 0; r < cfg.setups[0] || (r < cfg.setups[1] && time.Since(start) < setupBudget); r++ {
		if inst != nil {
			inst.close()
		}
		t0 := time.Now()
		var err error
		if inst, err = prepare(w, cfg.seed, g); err != nil {
			return nil, 0, fmt.Errorf("%s set-up: %w", w.name, err)
		}
		took = append(took, time.Since(t0).Seconds())
	}
	sort.Float64s(took)
	return inst, percentile(took, 50), nil
}

// runOne runs one workload in this process, prints each metric by name
// with its unit to out, and returns the result. An error means the run
// could not be made at all; failed ops are counted in the result.
func runOne(cfg runConfig, out io.Writer) (result, error) {
	w, ok := workloadByName(cfg.workload)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	g, err := loadGolden()
	if err != nil {
		return result{}, err
	}
	inst, setupS, err := setUp(w, cfg, g)
	if err != nil {
		return result{}, err
	}
	defer inst.close()
	runtime.GC() // every run starts its measured phase from a collected heap

	var res result
	if cfg.trace {
		if res, err = runTraced(w, inst, cfg, out); err != nil {
			return result{}, err
		}
	} else {
		res = runUntraced(w, inst, cfg, setupS, out)
	}
	res.Correct = res.Failed == 0
	fmt.Fprintf(out, "%-13s %-30s %d of %d ops failed\n", w.name, "fail_ratio", res.Failed, res.Attempted)
	if res.firstErr != nil {
		fmt.Fprintf(out, "%-13s first failure: %v\n", w.name, res.firstErr)
	}
	return res, nil
}

// report fills res.Metrics from values for every definition, in order,
// printing each line; a metric without a value reads 0.
func report(out io.Writer, name string, defs []metricDef, values map[string]float64, note string) map[string]metricValue {
	ms := map[string]metricValue{}
	for _, d := range defs {
		ms[d.Name] = metricValue{values[d.Name], d.Unit}
		fmt.Fprintf(out, "%-13s %-30s %14.4f %-6s %s\n", name, d.Name, values[d.Name], d.Unit, note)
	}
	return ms
}

func runUntraced(w workload, inst *instance, cfg runConfig, setupS float64, out io.Writer) result {
	before := snapRuntime()
	ph := measure(inst, seconds(cfg.seconds), nil)
	after := snapRuntime()

	ops := float64(ph.ops())
	values := map[string]float64{
		"op_ms_p50":       percentile(ph.latMs, 50),
		"op_ms_p90":       percentile(ph.latMs, 90),
		"ops_per_s":       ops / ph.wall.Seconds(),
		"alloc_kb_per_op": float64(after.mem.TotalAlloc-before.mem.TotalAlloc) / 1024 / ops,
		"allocs_per_op":   float64(after.mem.Mallocs-before.mem.Mallocs) / ops,
		"setup_s":         setupS,
	}
	res := result{Attempted: ph.ops(), Failed: ph.failed, firstErr: ph.firstErr}
	res.Metrics = report(out, w.name, endToEnd, values, fmt.Sprintf("n=%d", ph.ops()))
	if ph.ops() >= 1000 { // p99 needs ten samples beyond it; printed, not gated
		fmt.Fprintf(out, "%-13s %-30s %14.4f %-6s n=%d\n", w.name, "op_ms_p99", percentile(ph.latMs, 99), "ms", ph.ops())
	}
	return res
}

// runTraced makes the per-layer ledger: the exact counts over the
// workload's fixed plans; ops with a span around every public call,
// alternating with untraced ops for the baseline p50; then the
// differential calls, cycling over the plans.
func runTraced(w workload, inst *instance, cfg runConfig, out io.Writer) (result, error) {
	values, err := exactCounts(inst.plans)
	if err != nil {
		return result{}, fmt.Errorf("%s exact counts: %w", w.name, err)
	}
	tr := newTracer()
	before := snapRuntime()
	var srvBefore, srvAfter serverCounts
	if inst.server != nil {
		srvBefore = countsOf(inst.server.Metrics())
	}
	// Untraced and traced stretches alternate, a round every three
	// seconds, so that the overhead ratio compares like heap and cache
	// states.
	var base, traced phase
	rounds := max(1, int(cfg.seconds/3))
	for r := 0; r < rounds; r++ {
		base.merge(measure(inst, seconds(0.2*cfg.seconds)/time.Duration(rounds), nil))
		traced.merge(measure(inst, seconds(0.5*cfg.seconds)/time.Duration(rounds), tr))
	}
	after := snapRuntime()
	if inst.server != nil {
		srvAfter = countsOf(inst.server.Metrics())
	}

	res := result{Attempted: base.ops() + traced.ops(), Failed: base.failed + traced.failed,
		firstErr: errors.Join(base.firstErr, traced.firstErr)}
	startC := time.Now()
	for i := 0; i == 0 || time.Since(startC) < seconds(0.3*cfg.seconds); i++ {
		res.Attempted++
		if err := differential(tr, int(inst.next.Add(1)-1), inst, inst.plans[i%len(inst.plans)]); err != nil {
			res.Failed++
			res.firstErr = errors.Join(res.firstErr, err)
		}
	}
	if err := tr.write(cfg.outDir, w.name); err != nil {
		return result{}, err
	}

	// A span is named after its metric: <span>_ms, for a job's phases
	// <span>_ms_p50.
	spans := []string{"core.compile", "core.other_pass", "cluster.new", "interp.run_full", "interp.run_timing", "interp.seq_full"}
	for _, span := range passMetric {
		spans = append(spans, span)
	}
	for _, span := range spans {
		values[span+"_ms"] = tr.medianMs(span)
	}
	for _, span := range []string{"jobs.queued", "jobs.compile", "jobs.run", "jobs.total"} {
		values[span+"_ms_p50"] = tr.medianMs(span)
	}
	values["core.compile_self_ms"] = percentile(tr.perOpMs("core.compile", true), 50)
	values["jobs.http_overhead_ms_p50"] = percentile(tr.perOpMs("jobs.client", true), 50)
	for name, obs := range tr.obs {
		sort.Float64s(obs)
		values[name] = percentile(obs, 50)
	}
	unrecorded := values["interp.run_timing_ms"]
	if inst.mode == core.Full {
		unrecorded = values["interp.run_full_ms"]
		values["interp.full_minus_timing_ms"] = values["interp.run_full_ms"] - values["interp.run_timing_ms"]
	}
	values["trace.record_overhead_ms"] = tr.medianMs("trace.run_recorded") - unrecorded
	if n := tr.counts["jobs.ops"]; n > 0 {
		values["jobs.cache_hit_ratio"] = float64(tr.counts["jobs.cache_hits"]) / float64(n)
	}
	values["jobs.cold_compiles"] = float64(srvAfter.coldCompiles - srvBefore.coldCompiles)
	values["jobs.shed"] = float64(srvAfter.shed - srvBefore.shed)
	values["jobs.retries"] = float64(srvAfter.retries - srvBefore.retries)
	values["runtime.peak_rss_mb"] = peakRSSMB()
	values["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	values["runtime.gc_pause_ms"] = float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6
	values["runtime.mutex_wait_ms"] = (after.mutexWait - before.mutexWait) * 1e3
	values["runtime.sched_latency_ms_p90"] = schedLatencyP90Ms(before, after)
	if p50 := percentile(base.latMs, 50); p50 > 0 {
		values["bench.trace_overhead_ratio"] = percentile(traced.latMs, 50) / p50
	}
	res.Metrics = report(out, w.name, perLayer, values, "")
	fmt.Fprintf(out, "%-13s traced ops n=%d, untraced baseline n=%d, differentials n=%d\n",
		w.name, traced.ops(), base.ops(), res.Attempted-base.ops()-traced.ops())
	return res, nil
}

// serverCounts are the service counters read around the traced phase.
type serverCounts struct{ coldCompiles, shed, retries int64 }

func countsOf(m jobs.Metrics) serverCounts {
	return serverCounts{m.CompileColdMs.Count, m.Shed, m.Retries}
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// suiteResults holds, per workload, the untraced and the traced result.
type suiteResults map[string][2]result

// runSuite runs every workload twice (tracing off, then on), each run
// in a child process of its own — a re-exec of this binary — so that
// heap state and peak RSS of one workload never leak into the next.
// Every child is waited for; one that crashes or times out has all its
// ops marked failed instead of being dropped from the report.
func runSuite(cfg runConfig) (suiteResults, bool) {
	self, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	fmt.Printf("environment: nproc=%d GOMAXPROCS=%d %s %s/%s seed=%d seconds=%g\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, cfg.seed, cfg.seconds)
	all, ok := suiteResults{}, true
	for _, w := range workloads {
		var pair [2]result
		for trace := 0; trace < 2; trace++ {
			pair[trace] = runChild(self, w.name, cfg, trace)
			ok = ok && pair[trace].Correct
		}
		all[w.name] = pair
	}
	return all, ok
}

func runChild(self, name string, cfg runConfig, trace int) result {
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, "-workload", name, "-seed", fmt.Sprint(cfg.seed),
		"-seconds", fmt.Sprint(cfg.seconds), "-trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	outBytes, err := cmd.Output() // waits for the child
	lines := strings.Split(strings.TrimSpace(string(outBytes)), "\n")
	var res result
	if err == nil {
		err = json.Unmarshal([]byte(lines[len(lines)-1]), &res)
		lines = lines[:len(lines)-1]
	}
	fmt.Println(strings.Join(lines, "\n"))
	if err != nil {
		fmt.Printf("%-13s child failed (trace=%d): %v; all its ops count as failed\n", name, trace, err)
		return result{Attempted: 1, Failed: 1}
	}
	return res
}

// selfCheck runs the suite twice on the same build and prints, per
// workload and end-to-end metric, both values, their relative
// difference and the bound. It fails if a difference exceeds its bound,
// if an op failed, or if an exact count differs between the two.
func selfCheck(cfg runConfig) bool {
	first, ok1 := runSuite(cfg)
	second, ok2 := runSuite(cfg)
	ok := ok1 && ok2
	fmt.Printf("\n%-13s %-18s %14s %14s %8s %6s\n", "workload", "metric", "first", "second", "diff", "bound")
	for _, w := range workloads {
		a, b := first[w.name], second[w.name]
		for _, d := range endToEnd {
			x, y := a[0].Metrics[d.Name].Value, b[0].Metrics[d.Name].Value
			diff := 0.0
			if x > 0 && y > 0 {
				diff = max(x, y)/min(x, y) - 1
			}
			verdict := ""
			if diff > d.Bound {
				verdict, ok = "EXCEEDED", false
			}
			fmt.Printf("%-13s %-18s %14.4f %14.4f %7.2f%% %5.0f%% %s\n", w.name, d.Name, x, y, 100*diff, 100*d.Bound, verdict)
		}
		for _, name := range exactLayer {
			if x, y := a[1].Metrics[name].Value, b[1].Metrics[name].Value; x != y {
				fmt.Printf("%-13s %-18s %v != %v: exact count differs\n", w.name, name, x, y)
				ok = false
			}
		}
	}
	return ok
}
