package bench

// The cell kit: the three scaffolds every sweep cell is built from.

import (
	"fmt"
	"math"
	"sync"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// grains is the §5.6 granularity axis in table order.
var grains = []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse}

// runMethod is one of (*core.Compiled).RunSequential, RunParallel or
// RunResilient.
type runMethod func(*core.Compiled, core.Mode) (*interp.Result, error)

// compileRun compiles src and executes it once; cell names the sweep
// cell in errors.
func compileRun(cell, src string, o core.Options, run runMethod, mode core.Mode) (*interp.Result, error) {
	c, err := core.Compile(src, o)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", cell, err)
	}
	res, err := run(c, mode)
	if err != nil {
		return nil, fmt.Errorf("bench: %s run: %w", cell, err)
	}
	return res, nil
}

// injectedRuns runs src in full mode once fault-free and then once per
// fault spec, in order ("" = no injector), each with a fresh recorder.
// row receives the spec's index (-1 for the baseline), the run, its
// trace events and whether its final memory matched the baseline's bit
// for bit.
func injectedRuns(cell, src string, o core.Options, run runMethod, specs []string,
	row func(i int, res *interp.Result, events []trace.Event, verified bool)) error {
	var base map[string][]float64
	for i, spec := range append([]string{""}, specs...) {
		rec := trace.New()
		o.Recorder, o.Faults = rec, nil
		if spec != "" {
			inj, err := fault.FromString(spec)
			if err != nil {
				return fmt.Errorf("bench: %s %s: %w", cell, spec, err)
			}
			o.Faults = inj
		}
		res, err := compileRun(cell+" "+spec, src, o, run, core.Full)
		if err != nil {
			return err
		}
		if i == 0 {
			base = res.Mem
		}
		row(i-1, res, rec.Events(), memEqual(base, res.Mem))
	}
	return nil
}

// memEqual compares two final-memory snapshots bit for bit.
func memEqual(a, b map[string][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for name, av := range a {
		bv, ok := b[name]
		if !ok || len(av) != len(bv) {
			return false
		}
		for i := range av {
			if math.Float64bits(av[i]) != math.Float64bits(bv[i]) {
				return false
			}
		}
	}
	return true
}

// putStep is one timed one-sided PUT of twoRankPuts: rank 0 writes
// base, base+1, … through desc into rank 1's window.
type putStep struct {
	label string
	desc  mpi.AccessDesc
	base  float64
}

// twoRankPuts issues steps in order on a fresh two-rank cluster, with
// rank 1 checking every delivered element between fences, and returns
// each PUT's virtual time on the origin. All steps address the region
// the first one spans.
func twoRankPuts(params cluster.Params, cell string, steps []putStep) ([]sim.Time, error) {
	cl, err := cluster.New(2, params)
	if err != nil {
		return nil, err
	}
	w := mpi.NewWorld(cl)
	d0 := steps[0].desc
	region := make([]float64, d0.Offset+(d0.Elems-1)*d0.Stride+1)
	times := make([]sim.Time, len(steps))
	var verr error
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			p := w.Rank(rank)
			var local []float64
			if rank == 1 {
				local = region
			}
			win := p.WinCreate("cell", local)
			for i, st := range steps {
				if rank == 0 {
					data := make([]float64, st.desc.Elems)
					for j := range data {
						data[j] = st.base + float64(j)
					}
					t0 := cl.Clock(0)
					mpi.Must(p.Put(win, 1, st.desc, data))
					times[i] = cl.Clock(0) - t0
				}
				mpi.Must(p.Fence(win))
				if rank == 1 {
					for j := int64(0); j < st.desc.Elems && verr == nil; j++ {
						if got, want := region[st.desc.Offset+j*st.desc.Stride], st.base+float64(j); got != want {
							verr = fmt.Errorf("bench: %s %s payload: element %d = %v, want %v", cell, st.label, j, got, want)
						}
					}
				}
				mpi.Must(p.Fence(win))
			}
		}(rank)
	}
	wg.Wait()
	return times, verr
}
