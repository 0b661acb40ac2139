package bench

import (
	"encoding/json"
	"fmt"
	"io"
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
	// PeakRSSBytes is the process memory high-water mark
	// (runtime.MemStats.Sys) when the row finished. Rows run smallest
	// to largest, so the largest row's value is its own peak.
	PeakRSSBytes uint64 `json:"peak_rss_bytes"`
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
func scalePoint(benchmark, fabric string, p int, opts []RunOption) (ScaleRow, error) {
	src, err := scaleSource(benchmark, p)
	if err != nil {
		return ScaleRow{}, err
	}
	start := time.Now()
	c, err := core.Compile(src, applyRunOptions(core.Options{
		NumProcs: p,
		Grain:    lmad.Coarse,
		Fabric:   fabric,
	}, opts))
	if err != nil {
		return ScaleRow{}, fmt.Errorf("bench: %s/%s/%d: %w", benchmark, fabricLabel(fabric), p, err)
	}
	res, err := c.RunParallel(core.Timing)
	if err != nil {
		return ScaleRow{}, fmt.Errorf("bench: %s/%s/%d run: %w", benchmark, fabricLabel(fabric), p, err)
	}
	wall := time.Since(start)
	ops := res.Report.TotalCommOps()
	virtual := res.Elapsed
	res = nil // release the run before sampling the heap
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	peak := ms.Sys
	runtime.GC()
	runtime.ReadMemStats(&ms)
	row := ScaleRow{
		Benchmark:     benchmark,
		Fabric:        fabricLabel(fabric),
		Ranks:         p,
		Problem:       p,
		VirtualSec:    virtual.Seconds(),
		WallSec:       wall.Seconds(),
		PeakRSSBytes:  peak,
		LiveHeapBytes: ms.HeapInuse,
		CommOps:       ops,
	}
	if row.WallSec > 0 {
		row.EventsPerSec = float64(ops) / row.WallSec
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
// coarse grain. Nil benchmarks means ScaleBenchmarks; rank counts run
// in the given order (pass them ascending so each row's memory
// high-water mark is its own). fabrics entries are interconnect
// backend names ("" = default V-Bus).
func ScaleSweep(benchmarks []string, ranks []int, fabrics []string, opts ...RunOption) ([]ScaleRow, error) {
	if len(benchmarks) == 0 {
		benchmarks = ScaleBenchmarks
	}
	var rows []ScaleRow
	for _, benchmark := range benchmarks {
		for _, fabric := range fabrics {
			for _, p := range ranks {
				row, err := scalePoint(benchmark, fabric, p, opts)
				if err != nil {
					return nil, err
				}
				rows = append(rows, row)
			}
		}
	}
	return rows, nil
}

// FormatScaleSweep renders the sweep as an aligned text table.
func FormatScaleSweep(rows []ScaleRow) string {
	var sb strings.Builder
	sb.WriteString("Weak scaling (timing mode, coarse grain, problem = ranks)\n")
	sb.WriteString("benchmark  fabric         ranks  virtual(s)    wall(s)   peakRSS(MB)  ops      ops/s\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-14s %-6d %-13.6f %-9.3f %-12.1f %-8d %.0f\n",
			r.Benchmark, r.Fabric, r.Ranks, r.VirtualSec, r.WallSec,
			float64(r.PeakRSSBytes)/(1<<20), r.CommOps, r.EventsPerSec)
	}
	return sb.String()
}

// CoreRow is one end-to-end measurement of the paper's benchmark trio
// at the paper's 4-rank configuration: compile + full-fidelity run,
// wall-clocked.
type CoreRow struct {
	Benchmark string `json:"benchmark"`
	Ranks     int    `json:"ranks"`
	// Problem is the benchmark's size parameter (matrix order, grid
	// side, or FFT exponent).
	Problem int `json:"problem"`
	// VirtualSec is the simulated execution time in seconds.
	VirtualSec float64 `json:"virtual_seconds"`
	// WallSec is the host wall time of compile + full-mode run.
	WallSec float64 `json:"wall_seconds"`
	// CommOps is the number of interconnect operations the run charged.
	CommOps int64 `json:"comm_ops"`
	// EventsPerSec is CommOps divided by WallSec.
	EventsPerSec float64 `json:"events_per_sec"`
}

// CoreBench measures the end-to-end toolchain on the paper's trio at
// 4 ranks in full mode: MM 128², SWIM 128², CFFT2INIT M=9. It is the
// repository's performance baseline (vbbench -corebench →
// BENCH_core.json): compare events/sec across commits to catch
// runtime regressions.
func CoreBench(fabric string, opts ...RunOption) ([]CoreRow, error) {
	const procs = 4
	cases := []struct {
		name    string
		problem int
		src     string
	}{
		{"MM", 128, MMSource(128)},
		{"SWIM", 128, SwimSource(128, 128)},
		{"CFFT2INIT", 9, CFFTSource(9)},
	}
	var rows []CoreRow
	for _, cse := range cases {
		start := time.Now()
		c, err := core.Compile(cse.src, applyRunOptions(core.Options{
			NumProcs: procs,
			Grain:    lmad.Coarse,
			Fabric:   fabric,
		}, opts))
		if err != nil {
			return nil, fmt.Errorf("bench: corebench %s: %w", cse.name, err)
		}
		res, err := c.RunParallel(core.Full)
		if err != nil {
			return nil, fmt.Errorf("bench: corebench %s run: %w", cse.name, err)
		}
		wall := time.Since(start)
		row := CoreRow{
			Benchmark:  cse.name,
			Ranks:      procs,
			Problem:    cse.problem,
			VirtualSec: res.Elapsed.Seconds(),
			WallSec:    wall.Seconds(),
			CommOps:    res.Report.TotalCommOps(),
		}
		if row.WallSec > 0 {
			row.EventsPerSec = float64(row.CommOps) / row.WallSec
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatCoreBench renders the baseline as an aligned text table.
func FormatCoreBench(rows []CoreRow) string {
	var sb strings.Builder
	sb.WriteString("Core baseline (full mode, coarse grain, 4 ranks)\n")
	sb.WriteString("benchmark   problem  virtual(s)    wall(s)   ops      ops/s\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-11s %-8d %-13.6f %-9.3f %-8d %.0f\n",
			r.Benchmark, r.Problem, r.VirtualSec, r.WallSec, r.CommOps, r.EventsPerSec)
	}
	return sb.String()
}

// WriteJSON writes rows as indented JSON under a schema-tagged
// envelope (BENCH_scale.json / BENCH_core.json).
func WriteJSON(w io.Writer, schema string, rows interface{}) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(map[string]interface{}{
		"schema": schema,
		"rows":   rows,
	})
}
