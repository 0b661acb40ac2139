package bench

import (
	"fmt"
	"strconv"

	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// SpeedupCell is one program on Procs nodes against its sequential
// run, both in timing mode.
type SpeedupCell struct {
	Procs   int
	Seq     sim.Time
	Par     sim.Time
	Speedup float64
}

// speedups prices src sequentially once and then on every node count.
func speedups(name, src string, procs []int, grain lmad.Grain, env Env) ([]SpeedupCell, error) {
	seq, err := compileRun(name+" sequential", src, env.options(1, grain), (*core.Compiled).RunSequential, core.Timing)
	if err != nil {
		return nil, err
	}
	var cells []SpeedupCell
	for _, p := range procs {
		par, err := compileRun(fmt.Sprintf("%s on %d procs", name, p), src, env.options(p, grain), (*core.Compiled).RunParallel, core.Timing)
		if err != nil {
			return nil, err
		}
		cells = append(cells, SpeedupCell{p, seq.Elapsed, par.Elapsed, float64(seq.Elapsed) / float64(par.Elapsed)})
	}
	return cells, nil
}

// Table1Row is one cell of the paper's Table 1: MM speedup for one
// matrix size on one node count.
type Table1Row struct {
	Size int
	SpeedupCell
}

// Table1 reproduces "Table 1. Total execution time of the MM code":
// speedups of MM for sizes × node counts, at the given granularity
// (the paper's best: coarse).
func Table1(sizes []int, procs []int, grain lmad.Grain, env Env) ([]Table1Row, error) {
	var rows []Table1Row
	for _, n := range sizes {
		cells, err := speedups(fmt.Sprintf("MM %d", n), MMSource(n), procs, grain, env)
		if err != nil {
			return nil, err
		}
		for _, c := range cells {
			rows = append(rows, Table1Row{n, c})
		}
	}
	return rows, nil
}

func runTable1(env Env) (Report, error) {
	rows, err := Table1(Sized(env.Quick, []int{64, 128, 256}, []int{256, 512, 1024}), []int{1, 2, 4}, lmad.Fine, env)
	if err != nil {
		return Report{}, err
	}
	var grid []cell
	raw := Table{Title: "raw cells:", RowFormat: "  MM %4d*%-4d procs=%d seq=%v par=%v speedup=%.3f\n"}
	for _, r := range rows {
		grid = append(grid, cell{strconv.Itoa(r.Procs), fmt.Sprintf("%d*%d", r.Size, r.Size), r.Speedup})
		raw.Add(r.Size, r.Size, r.Procs, r.Seq, r.Par, r.Speedup)
	}
	return Report{Tables: []Table{pivot("Table 1. Speedups of the MM code", "# of Nodes", "%.3f", grid), raw}}, nil
}

// Benchmark is one named program of a benchmark set.
type Benchmark struct{ Name, Source string }

func mmBenchmark(n int) Benchmark { return Benchmark{fmt.Sprintf("MM(%d*%d)", n, n), MMSource(n)} }
func swimBenchmark(n int) Benchmark {
	return Benchmark{fmt.Sprintf("Swim(ITMAX=1,N=%d)", n), SwimSource(n, n)}
}
func cfftBenchmark(m int) Benchmark {
	return Benchmark{fmt.Sprintf("CFFT2INIT(M=%d)", m), CFFTSource(m)}
}

// Table2Benchmarks returns the paper's Table 2 benchmark set in the
// tables' row order: CFFT2INIT with M=11, MM at 1024² and SWIM with
// ITMAX=1 at full size. Smaller sizes can be substituted for quick
// runs.
func Table2Benchmarks(mmN, swimN, cfftM int) []Benchmark {
	return []Benchmark{cfftBenchmark(cfftM), mmBenchmark(mmN), swimBenchmark(swimN)}
}

// table2Set is the Table 2 set at the sweep's size.
func table2Set(env Env) []Benchmark {
	if env.Quick {
		return Table2Benchmarks(128, 128, 9)
	}
	return Table2Benchmarks(1024, 512, 11)
}

// Table2Row is one cell of Table 2: communication time of one benchmark
// at one granularity.
type Table2Row struct {
	Benchmark string
	Grain     lmad.Grain
	// CommTime is the total data scattering/collecting time — the
	// quantity the §5.6 granularity controls and Table 2 compares.
	CommTime sim.Time
	// SyncTime is barrier/fence time (grain-independent).
	SyncTime sim.Time
	Elapsed  sim.Time
	Messages int64
	Bytes    int64
}

// Table2 reproduces "Table 2. Communication time for matrix
// multiplication, swim and CFFT2INIT of TFFT": the communication time
// of each benchmark on env.Procs processors at the three granularities.
func Table2(benchmarks []Benchmark, env Env) ([]Table2Row, error) {
	var rows []Table2Row
	for _, b := range benchmarks {
		for _, grain := range grains {
			res, err := compileRun(fmt.Sprintf("%s/%v", b.Name, grain), b.Source, env.options(env.procs(), grain), (*core.Compiled).RunParallel, core.Timing)
			if err != nil {
				return nil, err
			}
			rows = append(rows, Table2Row{
				Benchmark: b.Name,
				Grain:     grain,
				CommTime:  res.Report.TotalXferTime(),
				SyncTime:  res.Report.TotalCommTime() - res.Report.TotalXferTime(),
				Elapsed:   res.Elapsed,
				Messages:  res.Report.TotalCommOps(),
				Bytes:     res.Report.TotalCommBytes(),
			})
		}
	}
	return rows, nil
}

func runTable2(env Env) (Report, error) {
	rows, err := Table2(table2Set(env), env)
	if err != nil {
		return Report{}, err
	}
	var grid []cell
	raw := Table{Title: "raw cells:", RowFormat: "  %-22s %-6v comm=%-12v elapsed=%-12v msgs=%-6d bytes=%d\n"}
	for _, r := range rows {
		grid = append(grid, cell{r.Benchmark, r.Grain.String(), r.CommTime.Seconds()})
		raw.Add(r.Benchmark, r.Grain, r.CommTime, r.Elapsed, r.Messages, r.Bytes)
	}
	return Report{Tables: []Table{pivot("Table 2. Communication time (s) by granularity", "Benchmark", "%.5f", grid), raw}}, nil
}

// runExtra is the supplementary speedup experiment: the two Table 2
// programs Table 1 does not cover, at Table 2's best grain, and MM past
// the paper's four nodes.
func runExtra(env Env) (Report, error) {
	swimN, cfftM, mmN := 512, 11, 1024
	if env.Quick {
		swimN, cfftM, mmN = 128, 9, 128
	}
	coarse := Table{Title: "Supplementary speedups (coarse grain, best of Table 2):", Header: "benchmark\tprocs\tspeedup", RowFormat: "%s\t%d\t%.3f\n"}
	for _, b := range []Benchmark{cfftBenchmark(cfftM), swimBenchmark(swimN)} {
		cells, err := speedups(b.Name, b.Source, []int{1, 2, 4}, lmad.Coarse, env)
		if err != nil {
			return Report{}, err
		}
		for _, c := range cells {
			coarse.Add(b.Name, c.Procs, c.Speedup)
		}
	}
	rows, err := Table1([]int{mmN}, []int{1, 2, 4, 8, 16}, lmad.Fine, env)
	if err != nil {
		return Report{}, err
	}
	mm := Table{
		Title:     fmt.Sprintf("MM scalability beyond the paper's 4 nodes (%d*%d, fine grain):", mmN, mmN),
		Header:    "procs\tspeedup",
		RowFormat: "%d\t%.3f\n",
	}
	for _, r := range rows {
		mm.Add(r.Procs, r.Speedup)
	}
	return Report{Tables: []Table{coarse, mm}}, nil
}
