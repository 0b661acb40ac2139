// Package core is the public face of the reproduction: the end-to-end
// compiler pipeline of the paper's Figure 1 (front end → LMAD analysis
// → MPI-2 postpass) plus runners that execute the result on the
// simulated V-Bus cluster.
//
// Typical use:
//
//	c, err := core.Compile(src, core.Options{NumProcs: 4, Grain: lmad.Coarse})
//	seq, err := c.RunSequential(core.Timing)
//	par, err := c.RunParallel(core.Timing)
//	speedup := float64(seq.Elapsed) / float64(par.Elapsed)
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Mode re-exports the interpreter's execution fidelity.
type Mode = interp.Mode

// Execution modes.
const (
	// Full executes every iteration and moves real data.
	Full = interp.Full
	// Timing charges identical virtual time without executing compute
	// loops or copying transfer payloads.
	Timing = interp.Timing
)

// Options configures a compilation.
type Options struct {
	// NumProcs is the SPMD process count (default 4, the paper's
	// configuration).
	NumProcs int
	// Grain is the §5.6 communication granularity (default Fine).
	Grain lmad.Grain
	// NoLiveOut lets the AVPG drop collects of values that are dead at
	// program end. The default (false) keeps every final value on the
	// master so results can be inspected.
	NoLiveOut bool
	// AutoGrain makes the compiler pick the granularity itself by
	// statically pricing the communication plan of each grain with the
	// machine's NIC model and keeping the cheapest — automating the
	// choice the paper leaves "up to the user" (§5.6 suggests profiling
	// tools for exactly this decision). Grain is ignored when set.
	AutoGrain bool
	// LockReductions selects the paper's §3 lock-based reduction
	// combining (MPI_WIN_LOCK critical sections on the master) instead
	// of an Allreduce tree.
	LockReductions bool
	// PullScatter lets slaves GET their scatter regions from the master
	// concurrently instead of the master PUTting serially (§2.2: either
	// end can drive a one-sided transfer).
	PullScatter bool
	// TwoSided generates MPI-1 SEND/RECEIVE pairs instead of one-sided
	// PUT/GET — the baseline the paper's one-sided design argues
	// against (for the ablation benchmark).
	TwoSided bool
	// Params overrides the machine model (default cluster.DefaultParams
	// widened to fit NumProcs).
	Params *cluster.Params
	// Fabric selects a registered interconnect backend by name ("vbus",
	// "ethernet", "ideal", ...) when Params is nil. Empty means the
	// default V-Bus machine. See internal/interconnect.
	Fabric string
	// Trace, when non-nil, collects per-pass timing and optional IR
	// dumps as the pipeline runs (vbcc -passes).
	Trace *PassTrace
	// Recorder, when non-nil, is attached to every cluster the
	// compiled program runs on, recording the per-rank event timeline
	// (vbrun -trace / -profile). Attach a fresh recorder per run when
	// timelines must not mix.
	Recorder *trace.Recorder
	// Faults, when non-nil, injects deterministic faults into every
	// cluster the compiled program runs on (vbrun/vbbench -faults):
	// flit drops and corruption priced through the reliable transport,
	// link outages, slow and crashing nodes, V-Bus acquisition failures
	// and per-operation deadlines. See internal/fault.
	Faults *fault.Injector
	// Resilient emits restart-capable SPMD code (regions grouped into
	// checkpoint epochs, AVPG elimination disabled) so RunResilient can
	// survive rank crashes via coordinated checkpoint/restart plus
	// ULFM-style shrink-and-recover (vbrun -resilient).
	Resilient bool
	// CkptEvery is the checkpoint cadence in parallel regions per epoch
	// (minimum 1; only meaningful with Resilient). vbrun -ckpt-every.
	CkptEvery int
	// CkptDir, when non-empty, persists each epoch's checkpoint blob to
	// disk under this directory; empty keeps checkpoints in memory only.
	CkptDir string
	// Coalesce enables the postpass coalesce stage: strided
	// scatter/collect transfers at or above the machine's pack crossover
	// are rewritten into pack → contiguous DMA burst → unpack
	// (vbcc/vbrun/vbbench -coalesce). Off by default, keeping every
	// translation and table bit-identical to earlier builds.
	Coalesce bool
}

func (o Options) withDefaults() Options {
	if o.NumProcs == 0 {
		o.NumProcs = 4
	}
	return o
}

// Compiled is a translated program ready to run.
type Compiled struct {
	// Prog is the analyzed program (inlined main, loops annotated).
	Prog *f77.Program
	// SPMD is the MPI-2 postpass output.
	SPMD *postpass.Program
	opts Options

	// lowered is Prog's executable form, built by the first run and
	// shared read-only by every later one (sequential, parallel,
	// resilient, concurrent): Compile itself never pays for it.
	lowerOnce sync.Once
	lowered   *interp.Lowered
}

// exec returns the lowered program, lowering it on first use.
func (c *Compiled) exec() *interp.Lowered {
	c.lowerOnce.Do(func() { c.lowered = interp.Lower(c.Prog) })
	return c.lowered
}

// Compile runs the whole pipeline on Fortran 77 source, as the
// ordered, named pass sequence reported by Passes(): the front-end
// analysis passes, then the postpass stages (repeated per candidate
// grain under AutoGrain, then grain-select prices them).
func Compile(src string, opts Options) (*Compiled, error) {
	opts = opts.withDefaults()
	if opts.Params == nil && opts.Fabric != "" {
		params, err := cluster.ParamsForFabric(opts.Fabric)
		if err != nil {
			return nil, err
		}
		opts.Params = &params
	}
	tr := opts.Trace

	// ---- Front end (Figure 1 FE box), one pass at a time.
	var prog *f77.Program
	if err := tr.run("parse", func() (string, error) {
		var err error
		prog, err = f77.Parse(src)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d units", len(prog.Units)), nil
	}, func() string { return f77.Format(prog) }); err != nil {
		return nil, err
	}
	if err := tr.run("inline", func() (string, error) {
		if err := analysis.InlineCalls(prog); err != nil {
			return "", err
		}
		return fmt.Sprintf("%d units after inlining", len(prog.Units)), nil
	}, func() string { return f77.Format(prog) }); err != nil {
		return nil, err
	}
	main := prog.Main()
	tr.run("const-prop", func() (string, error) {
		analysis.PropagateConstants(main)
		return "", nil
	}, func() string { return f77.Format(prog) })
	tr.run("induction", func() (string, error) {
		analysis.SubstituteInductions(main)
		analysis.PropagateConstants(main) // fold the induction temporaries' initial values
		return "", nil
	}, func() string { return f77.Format(prog) })
	tr.run("parallel-detect", func() (string, error) {
		analysis.DetectParallel(main)
		n := 0
		if main != nil {
			f77.WalkStmts(main.Body, func(s f77.Stmt) bool {
				if l, ok := s.(*f77.DoLoop); ok && l.Parallel {
					n++
				}
				return true
			})
		}
		return fmt.Sprintf("%d parallel loops", n), nil
	}, func() string { return f77.Format(prog) })

	// ---- MPI-2 postpass, staged (internal/postpass).
	machine := machineParams(opts.Params, opts.NumProcs)
	translate := func(g lmad.Grain, annotate string) (*postpass.Program, error) {
		var hook postpass.StageHook
		if tr != nil {
			hook = func(stage string, wall time.Duration, note string, p *postpass.Program) {
				if annotate != "" {
					if note != "" {
						note += ", "
					}
					note += annotate
				}
				tr.record(stage, wall, note, func() string { return p.String() })
			}
		}
		return postpass.TranslateStaged(prog, postpass.Options{
			NumProcs:       opts.NumProcs,
			Grain:          g,
			LiveOutAll:     !opts.NoLiveOut,
			LockReductions: opts.LockReductions,
			PullScatter:    opts.PullScatter,
			TwoSided:       opts.TwoSided,
			Resilient:      opts.Resilient,
			CkptEvery:      opts.CkptEvery,
			Coalesce:       opts.Coalesce,
			Machine:        &machine,
		}, hook)
	}
	if opts.AutoGrain {
		params := machine
		var cands []*postpass.Program
		for _, g := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
			pp, err := translate(g, "grain="+g.String())
			if err != nil {
				return nil, err
			}
			cands = append(cands, pp)
		}
		var best *postpass.Program
		var bestCost sim.Time
		tr.run("grain-select", func() (string, error) {
			var parts []string
			for _, pp := range cands {
				cost := postpass.EstimateCommCost(pp, params)
				parts = append(parts, fmt.Sprintf("%s=%v", pp.Opts.Grain, cost))
				if best == nil || cost < bestCost {
					best, bestCost = pp, cost
				}
			}
			return fmt.Sprintf("%s -> picked %s", strings.Join(parts, ", "), best.Opts.Grain), nil
		}, nil)
		opts.Grain = best.Opts.Grain
		return &Compiled{Prog: prog, SPMD: best, opts: opts}, nil
	}
	pp, err := translate(opts.Grain, "")
	if err != nil {
		return nil, err
	}
	return &Compiled{Prog: prog, SPMD: pp, opts: opts}, nil
}

// Grain reports the granularity the compilation used (interesting with
// AutoGrain).
func (c *Compiled) Grain() lmad.Grain { return c.SPMD.Opts.Grain }

// MeshFor picks a mesh geometry that fits n processes (the smallest
// near-square mesh).
func MeshFor(n int) (w, h int) {
	w = 1
	for w*w < n {
		w++
	}
	h = (n + w - 1) / w
	return w, h
}

// machineParams resolves the machine model for n processes: the
// override (or the default parameters) with the mesh sized to fit n.
// A fabric with a geometry preference (interconnect.GeometryHinter —
// the 3D-torus card) picks its own dimensions; otherwise the 2D mesh
// widens to the smallest near-square geometry that fits. An explicit
// MeshDims override always wins. Both the AutoGrain pricing and
// cluster construction go through here so the compiler prices exactly
// the machine the program will run on.
func machineParams(override *cluster.Params, n int) cluster.Params {
	params := cluster.DefaultParams()
	if override != nil {
		params = *override
	}
	if len(params.MeshDims) == 0 {
		if h, ok := params.Fabric.(interconnect.GeometryHinter); ok {
			params.MeshDims, params.Torus = h.PreferredGeometry(n)
		} else if params.MeshWidth*params.MeshHeight < n {
			params.MeshWidth, params.MeshHeight = MeshFor(n)
		}
	}
	return params
}

// RunParams configure one execution of a Compiled independently of its
// compile-time Options, so one cached compilation can drive many runs
// — including concurrent ones on separate simulated clusters (the
// vbserve plan cache). A run must not inherit the recorder or fault
// injector baked in at compile time: two concurrent runs sharing one
// recorder would interleave their timelines into a single corrupt
// trace. The zero value runs exactly like RunParallel with a nil
// Options.Recorder/Faults.
type RunParams struct {
	// Recorder, when non-nil, collects this run's per-rank event
	// timeline. Use a fresh recorder per run.
	Recorder *trace.Recorder
	// Faults, when non-nil, injects deterministic faults into this
	// run's cluster.
	Faults *fault.Injector
	// Ctx, when non-nil, bounds the run: cancelling it (a job
	// deadline, a client abort) stops the simulated cluster and the
	// run returns an mpi.Error of kind ErrCancelled. Nil means
	// unbounded.
	Ctx context.Context
}

// clusterFor builds the machine for n processes, with the compile
// options' event recorder (if any) attached.
func (c *Compiled) clusterFor(n int) (*cluster.Cluster, error) {
	return c.clusterWith(n, RunParams{Recorder: c.opts.Recorder, Faults: c.opts.Faults})
}

// clusterWith builds the machine for n processes with per-run
// recorder and fault overrides.
func (c *Compiled) clusterWith(n int, rp RunParams) (*cluster.Cluster, error) {
	params := machineParams(c.opts.Params, n)
	if rp.Faults != nil {
		params.Faults = rp.Faults
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		return nil, err
	}
	cl.SetRecorder(rp.Recorder)
	return cl, nil
}

// RunSequential executes the baseline on one processor.
func (c *Compiled) RunSequential(mode Mode) (*interp.Result, error) {
	cl, err := c.clusterFor(1)
	if err != nil {
		return nil, err
	}
	return c.exec().RunSequential(cl, mode)
}

// RunParallel executes the SPMD translation on NumProcs processors.
func (c *Compiled) RunParallel(mode Mode) (*interp.Result, error) {
	return c.RunParallelWith(mode, RunParams{
		Recorder: c.opts.Recorder,
		Faults:   c.opts.Faults,
	})
}

// RunParallelWith executes the SPMD translation on NumProcs processors
// with per-run overrides. The compiled plan and its lowered form are
// immutable at run time (every run builds its own cluster, MPI world
// and per-rank environments), so concurrent RunParallelWith calls on
// one Compiled are safe as long as each passes its own
// RunParams.Recorder.
func (c *Compiled) RunParallelWith(mode Mode, rp RunParams) (*interp.Result, error) {
	cl, err := c.clusterWith(c.opts.NumProcs, rp)
	if err != nil {
		return nil, err
	}
	return c.exec().RunParallel(c.SPMD, cl, mode, interp.RunConfig{Ctx: rp.Ctx})
}

// RunResilient executes the SPMD translation with coordinated
// checkpoint/restart: epochs from the resilience pass run under a
// crash supervisor that, on a rank failure, agrees on the failed set,
// shrinks the communicator to the survivors, retranslates the program
// for the smaller rank count, restores the last checkpoint and
// replays. Requires Options.Resilient.
func (c *Compiled) RunResilient(mode Mode) (*interp.Result, error) {
	if !c.opts.Resilient {
		return nil, fmt.Errorf("core: RunResilient needs Options.Resilient")
	}
	cl, err := c.clusterFor(c.opts.NumProcs)
	if err != nil {
		return nil, err
	}
	// Recompiling for a shrunken world reruns only the postpass — the
	// front-end analysis on Prog is rank-count independent.
	retranslate := func(n int) (*postpass.Program, error) {
		machine := machineParams(c.opts.Params, n)
		return postpass.Translate(c.Prog, postpass.Options{
			NumProcs:       n,
			Grain:          c.SPMD.Opts.Grain,
			LiveOutAll:     !c.opts.NoLiveOut,
			LockReductions: c.opts.LockReductions,
			PullScatter:    c.opts.PullScatter,
			TwoSided:       c.opts.TwoSided,
			Resilient:      true,
			CkptEvery:      c.opts.CkptEvery,
			Coalesce:       c.opts.Coalesce,
			Machine:        &machine,
		})
	}
	return c.exec().RunResilient(c.SPMD, cl, mode, interp.ResilientConfig{
		Retranslate: retranslate,
		Dir:         c.opts.CkptDir,
	})
}

// Speedup compiles nothing new: it runs both baseline and SPMD versions
// in timing mode and reports sequential/parallel.
func (c *Compiled) Speedup() (float64, error) {
	seq, err := c.RunSequential(Timing)
	if err != nil {
		return 0, err
	}
	par, err := c.RunParallel(Timing)
	if err != nil {
		return 0, err
	}
	if par.Elapsed == 0 {
		return 0, fmt.Errorf("core: parallel run took no virtual time")
	}
	return float64(seq.Elapsed) / float64(par.Elapsed), nil
}

// Report renders the postpass translation report.
func (c *Compiled) Report() string { return c.SPMD.String() }
