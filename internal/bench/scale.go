package bench

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

// ScaleRow is one point of the weak-scaling sweep: one benchmark on
// one fabric at one rank count, with the problem scaled to the rank
// count (N = P, so per-rank work stays constant as the machine grows).
type ScaleRow struct {
	Benchmark string `json:"benchmark"`
	Fabric    string `json:"fabric"`
	Ranks     int    `json:"ranks"`
	// Problem is the scaled problem size (matrix order for MM, grid
	// side for SWIM).
	Problem int `json:"problem"`
	// VirtualSec is the simulated execution time in seconds.
	VirtualSec float64 `json:"virtual_seconds"`
	// WallSec is the host wall time of compile + run.
	WallSec float64 `json:"wall_seconds"`
	// LiveHeapBytes is the live heap (HeapInuse after a GC) once the
	// row's run was released — the sweep's retained baseline.
	LiveHeapBytes uint64 `json:"live_heap_bytes"`
	// CommOps is the number of interconnect operations the run charged.
	CommOps int64 `json:"comm_ops"`
	// EventsPerSec is CommOps divided by WallSec: the simulator's
	// event-processing throughput.
	EventsPerSec float64 `json:"events_per_sec"`
}

// ScaleBenchmarks are the weak-scaling kernels: MM's row-partitioned
// matrix product and SWIM's 2-D stencil.
var ScaleBenchmarks = []string{"MM", "SWIM"}

// scaleSource returns benchmark's source at the weak-scaled problem
// size for p ranks.
func scaleSource(benchmark string, p int) (string, error) {
	switch benchmark {
	case "MM":
		return MMSource(p), nil
	case "SWIM":
		return SwimSource(p, p), nil
	}
	return "", fmt.Errorf("bench: unknown scale benchmark %q (have %s)",
		benchmark, strings.Join(ScaleBenchmarks, ", "))
}

// scalePoint runs one sweep cell in timing mode at coarse grain and
// measures it.
func scalePoint(benchmark string, p int, env Env) (ScaleRow, error) {
	src, err := scaleSource(benchmark, p)
	if err != nil {
		return ScaleRow{}, err
	}
	start := time.Now()
	res, err := compileRun(fmt.Sprintf("%s/%s/%d", benchmark, fabricLabel(env.Fabric), p), src,
		env.options(p, lmad.Coarse), (*core.Compiled).RunParallel, core.Timing)
	if err != nil {
		return ScaleRow{}, err
	}
	row := ScaleRow{
		Benchmark:  benchmark,
		Fabric:     fabricLabel(env.Fabric),
		Ranks:      p,
		Problem:    p,
		VirtualSec: res.Elapsed.Seconds(),
		WallSec:    time.Since(start).Seconds(),
		CommOps:    res.Report.TotalCommOps(),
	}
	res = nil // release the run before sampling the heap
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	row.LiveHeapBytes = ms.HeapInuse
	if row.WallSec > 0 {
		row.EventsPerSec = float64(row.CommOps) / row.WallSec
	}
	return row, nil
}

// fabricLabel names the default fabric explicitly in reports.
func fabricLabel(fabric string) string {
	if fabric == "" {
		return "vbus"
	}
	return fabric
}

// ScaleSweep runs the weak-scaling sweep: every benchmark × fabric ×
// rank count, problem scaled with the rank count, in timing mode at
// coarse grain. Nil benchmarks means ScaleBenchmarks. fabrics entries
// are interconnect backend names ("" = default V-Bus) and replace
// env.Fabric cell by cell.
func ScaleSweep(benchmarks []string, ranks []int, fabrics []string, env Env) ([]ScaleRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = ScaleBenchmarks
	}
	var rows []ScaleRow
	for _, benchmark := range benchmarks {
		for _, fabric := range fabrics {
			env.Fabric = fabric
			for _, p := range ranks {
				row, err := scalePoint(benchmark, p, env)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

func runScaleSweep(env Env) (Report, error) {
	ranks := Sized(env.Quick, []int{4, 16, 64}, []int{4, 16, 64, 256, 1024})
	rows, err := ScaleSweep(nil, ranks, []string{"vbus", "vbus3d", "ethernet", "ideal"}, env)
	if err != nil {
		return Report{}, err
	}
	t := Table{
		Title:     "Weak scaling (timing mode, coarse grain, problem = ranks)",
		Header:    "benchmark  fabric         ranks  virtual(s)    wall(s)   ops      ops/s",
		RowFormat: "%-10s %-14s %-6d %-13.6f %-9.3f %-8d %.0f\n",
	}
	for _, r := range rows {
		t.Add(r.Benchmark, r.Fabric, r.Ranks, r.VirtualSec, r.WallSec, r.CommOps, r.EventsPerSec)
	}
	return Report{
		Tables:  []Table{t},
		Section: &Section{File: "BENCH_scale.json", Schema: "vbbench-scalesweep/v1", Key: "rows", Value: rows},
	}, nil
}
