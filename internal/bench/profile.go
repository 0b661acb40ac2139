package bench

import (
	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/trace"
)

// CommMatrixFor runs one benchmark program with tracing on and returns
// its N×N communication matrix (interconnect-accounted bytes, origin
// row → peer column) — the communication-pattern view of the Table 2
// workloads that the timing tables leave implicit.
func CommMatrixFor(b Benchmark, grain lmad.Grain, env Env) ([][]int64, error) {
	rec := trace.New()
	_, err := compileRun(b.Name+" profile", b.Source,
		core.Options{NumProcs: env.procs(), Grain: grain, Fabric: env.Fabric, Recorder: rec}, (*core.Compiled).RunParallel, core.Timing)
	if err != nil {
		return nil, err
	}
	return rec.CommMatrix(env.procs()), nil
}

// CommProfiles renders the communication matrix of every benchmark in
// the set at the given granularity.
func CommProfiles(benchmarks []Benchmark, grain lmad.Grain, env Env) (Table, error) {
	t := Table{
		Title:     "Communication matrices of the Table 2 programs (accounted bytes, origin row -> peer column):",
		RowFormat: "%s (grain=%v, %d procs) communication matrix (bytes):\n%s",
	}
	for _, b := range benchmarks {
		m, err := CommMatrixFor(b, grain, env)
		if err != nil {
			return Table{}, err
		}
		t.Add(b.Name, grain, env.procs(), trace.FormatCommMatrix(m))
	}
	return t, nil
}

func runProfile(env Env) (Report, error) {
	t, err := CommProfiles(table2Set(env), lmad.Coarse, env)
	return Report{Tables: []Table{t}}, err
}
