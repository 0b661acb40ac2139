package interp

import (
	"bytes"
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// Result is the outcome of one program execution.
type Result struct {
	// Report is the cluster accounting snapshot (virtual clocks, comm
	// time, bytes).
	Report cluster.Report
	// Elapsed is the makespan in virtual time.
	Elapsed sim.Time
	// Mem is the master's final memory, keyed by symbol name. The
	// slices are the finished master's own storage, not copies: the
	// run is over and nothing else refers to them, so the caller owns
	// them. In Timing mode arrays are allocated on first touch, so an
	// array that no sequential section or executed loop touched is
	// absent (it would have been all zeros).
	Mem map[string][]float64
	// Output is what the program printed (master only).
	Output string
	// Regions is the per-region profile of a parallel run (nil for
	// sequential runs) — the §5.6 "profiling tools [20]" capability
	// that guides granularity selection: wall virtual time and data
	// communication per region.
	Regions []RegionStat
	// Checkpoints counts the coordinated checkpoints a resilient run
	// committed (zero for RunSequential/RunParallel).
	Checkpoints int
	// Recoveries counts the shrink-and-replay rounds a resilient run
	// survived (zero for RunSequential/RunParallel).
	Recoveries int
}

// RegionStat profiles one SPMD region.
type RegionStat struct {
	// Index is the region's position in postpass.Program.Regions.
	Index int
	// Parallel reports whether this was a partitioned region.
	Parallel bool
	// LoopVar names the parallel loop's index variable ("" for
	// sequential regions).
	LoopVar string
	// Line is the source line of the region's first statement.
	Line int
	// Elapsed is the virtual wall time the region took (clocks are
	// reconciled at region boundaries, so this is exact).
	Elapsed sim.Time
	// Comm is the data scattering/collecting time the region charged,
	// summed over ranks.
	Comm sim.Time
}

// String renders a profile table.
func FormatRegions(stats []RegionStat) string {
	var sb strings.Builder
	sb.WriteString("region  kind        line  elapsed       comm\n")
	for _, r := range stats {
		kind := "sequential"
		if r.Parallel {
			kind = "DO " + r.LoopVar
		}
		fmt.Fprintf(&sb, "%-7d %-11s %-5d %-13v %v\n", r.Index, kind, r.Line, r.Elapsed, r.Comm)
	}
	return sb.String()
}

// finalMem hands the finished master's memory — the main unit's
// symbols that have storage — to the result. env must not run again.
func finalMem(env *Env) map[string][]float64 {
	out := map[string][]float64{}
	env.eachMainCell(false, func(name string, buf []float64) { out[name] = buf })
	return out
}

// eachMainCell visits the storage of every main-unit symbol that has
// any. With force set it first allocates the constant-layout arrays
// Timing mode had left to first touch.
func (env *Env) eachMainCell(force bool, f func(name string, buf []float64)) {
	u := env.lw.main
	for slot := u.lo; slot < u.hi; slot++ {
		buf := env.mem[slot]
		if buf == nil && force {
			if lay := env.lw.layouts[slot]; lay != nil && lay.Size > 0 {
				buf = env.storage(slot, 0)
			}
		}
		if buf != nil {
			f(env.lw.syms[slot].Name, buf)
		}
	}
}

// recoverRun converts interpreter panics into errors; STOP is clean
// termination. Structured MPI fault errors (timeouts, crashes under
// fault injection) propagate as the run's error.
func recoverRun(err *error) {
	if r := recover(); r != nil {
		if _, ok := r.(stopSignal); ok {
			return
		}
		if re, ok := r.(runtimeError); ok {
			*err = re.err
			return
		}
		if me, ok := r.(*mpi.Error); ok {
			*err = me
			return
		}
		panic(r)
	}
}

// RunSequential executes the lowered program's main unit on a single
// processor — the paper's sequential baseline for speedup measurements.
// The cluster must have exactly one process.
func (lw *Lowered) RunSequential(cl *cluster.Cluster, mode Mode) (*Result, error) {
	if cl.N() != 1 {
		return nil, fmt.Errorf("interp: sequential run needs a 1-process cluster, got %d", cl.N())
	}
	if lw.main == nil {
		return nil, fmt.Errorf("interp: program has no main unit")
	}
	var out bytes.Buffer
	env, err := newEnv(lw, cl, 0, mode, &out)
	if err != nil {
		return nil, err
	}
	err = func() (err error) {
		defer recoverRun(&err)
		env.applyData(lw.main)
		env.runBody(lw.main, lw.main.body)
		return nil
	}()
	if err != nil {
		return nil, err
	}
	env.flush()
	rep := cl.Snapshot()
	return &Result{
		Report:  rep,
		Elapsed: rep.ElapsedVirtual(),
		Mem:     finalMem(env),
		Output:  out.String(),
	}, nil
}

// RunConfig bounds a parallel execution from outside.
type RunConfig struct {
	// Ctx, when non-nil, bounds the run: once it is cancelled (a job
	// deadline, an HTTP client abort) the MPI world is cancelled and
	// every rank unwinds with an mpi.ErrCancelled error instead of
	// running — or blocking — forever. Nil means no external bound.
	Ctx context.Context
}

// translated checks that pp is a translation of the lowered program
// (its regions must point at the statements that were lowered) for a
// cluster of cl's size.
func (lw *Lowered) translated(pp *postpass.Program, cl *cluster.Cluster) error {
	if cl.N() != pp.Opts.NumProcs {
		return fmt.Errorf("interp: program compiled for %d procs, cluster has %d", pp.Opts.NumProcs, cl.N())
	}
	if pp.Source != lw.prog {
		return fmt.Errorf("interp: SPMD translation is of a different program than the lowered one")
	}
	return nil
}

// RunParallel executes pp, an SPMD translation of the lowered program,
// on the cluster: one goroutine per rank, every rank executing the same
// Lowered, master/slave execution with scatter/fence/compute/collect/
// fence per parallel region (§3, §5.4, §5.5).
func (lw *Lowered) RunParallel(pp *postpass.Program, cl *cluster.Cluster, mode Mode, cfg RunConfig) (*Result, error) {
	if err := lw.translated(pp, cl); err != nil {
		return nil, err
	}
	P := cl.N()
	world := mpi.NewWorld(cl)
	defer world.Shutdown()
	if cfg.Ctx != nil {
		// Context monitor: translate an external cancellation into a
		// world cancel so blocked and computing ranks both unwind. The
		// monitor itself exits when the run completes.
		stop := make(chan struct{})
		defer close(stop)
		go func() {
			select {
			case <-cfg.Ctx.Done():
				world.Cancel()
			case <-stop:
			}
		}()
	}
	var out bytes.Buffer

	envs := make([]*Env, P)
	errs := make([]error, P)
	var wg sync.WaitGroup
	for r := 0; r < P; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = lw.runRank(pp, world.Rank(rank), mode, &out, &envs[rank])
			if errs[rank] != nil {
				// A rank that dies on an error must not strand its
				// peers in a rendezvous: mark it departed so blocked
				// operations fail over to structured errors.
				world.Depart(rank)
			}
		}(r)
	}
	wg.Wait()
	for _, e := range errs {
		if e != nil {
			return nil, e
		}
	}
	rep := cl.Snapshot()
	return &Result{
		Report:  rep,
		Elapsed: rep.ElapsedVirtual(),
		Mem:     finalMem(envs[0]),
		Output:  out.String(),
		Regions: envs[0].regionStats,
	}, nil
}

// rankRun is one rank's pass over the SPMD regions: the rank's env and
// MPI handle, its windows, and the halt flag every rank agrees on.
type rankRun struct {
	env *Env
	pp  *postpass.Program
	p   *mpi.Proc
	// wins are the §5.1 windows over every remotely accessed variable;
	// redWins the dedicated one-cell windows lock-based reductions
	// merge through (separate from the live scalar, which the owning
	// rank keeps updating during the partitioned loop).
	wins, redWins map[*f77.Symbol]*mpi.Win
	halted        bool
}

// newRankRun builds the rank's env (slaves' prints are discarded).
func (lw *Lowered) newRankRun(pp *postpass.Program, p *mpi.Proc, mode Mode, masterOut *bytes.Buffer) (*rankRun, error) {
	sink := masterOut
	if p.Rank() != 0 {
		sink = &bytes.Buffer{}
	}
	env, err := newEnv(lw, p.World().Cluster(), p.Rank(), mode, sink)
	if err != nil {
		return nil, err
	}
	return &rankRun{env: env, pp: pp, p: p}, nil
}

// createWindows generates the rank's MPI environment (§5.1): a window
// over every remotely accessed variable and, under lock-based combining, a one-cell window per reduction
// scalar. Window creation is collective, so every rank calls this at
// the same point of its run.
func (r *rankRun) createWindows() {
	r.wins = make(map[*f77.Symbol]*mpi.Win, len(r.pp.Windows))
	for _, sym := range r.pp.Windows {
		r.wins[sym] = r.p.WinCreate(sym.Name, r.env.winBacking(sym))
	}
	if !r.pp.Opts.LockReductions {
		return
	}
	r.redWins = map[*f77.Symbol]*mpi.Win{}
	for _, region := range r.pp.Regions {
		if region.Par == nil {
			continue
		}
		for _, red := range region.Par.Reductions {
			if r.redWins[red.Sym] == nil {
				r.redWins[red.Sym] = r.p.WinCreate(red.Sym.Name+"$RED", make([]float64, 1))
			}
		}
	}
}

func (lw *Lowered) runRank(pp *postpass.Program, p *mpi.Proc, mode Mode, masterOut *bytes.Buffer, envOut **Env) (err error) {
	defer recoverRun(&err)
	r, err := lw.newRankRun(pp, p, mode, masterOut)
	if err != nil {
		return err
	}
	r.env.world = p.World()
	*envOut = r.env
	if p.Rank() == 0 {
		// "the master initially holds all program data objects".
		r.env.applyData(lw.main)
	}
	r.createWindows()
	for ri := range pp.Regions {
		r.env.checkCancelled()
		if err := r.region(ri); err != nil {
			return err
		}
	}
	r.env.flush()
	return nil
}

// region executes region ri of the translation and, on the master,
// appends its profile row.
func (r *rankRun) region(ri int) error {
	env, p, region := r.env, r.p, r.pp.Regions[ri]
	master := p.Rank() == 0
	var startClock, startComm sim.Time
	if master {
		startClock = env.cl.Clock(0)
		startComm = env.cl.TotalXferTime()
	}
	if region.Par == nil {
		// Sequential section: "the master executes all sequential
		// sections... slaves wait at barriers".
		if master && !r.halted {
			lo, hi, err := env.lw.span(region.Stmts)
			if err != nil {
				return err
			}
			if env.lw.main.body.execRange(env, lo, hi) == ctrlStop {
				r.halted = true
			}
		}
		env.flush()
		mpi.Must(p.Barrier())
		// Programs containing STOP need the master's halt decision
		// shared with the slaves after each sequential section;
		// STOP-free programs (all the benchmarks) skip the broadcast.
		if env.lw.hasStop {
			flag := 0.0
			if r.halted {
				flag = 1
			}
			got, err := p.Bcast(0, []float64{flag})
			mpi.Must(err)
			if got[0] != 0 {
				r.halted = true
			}
		}
	} else if r.halted {
		// Everyone agreed to halt; the remaining regions are skipped,
		// with the region's three barriers kept so clocks stay
		// reconciled.
		env.flush()
		mpi.Must(p.Barrier())
		mpi.Must(p.Barrier())
		mpi.Must(p.Barrier())
		return nil
	} else if err := env.runParRegion(r.pp, region.Par, p, r.wins, r.redWins); err != nil {
		return err
	}
	if master {
		st := RegionStat{
			Index:    ri,
			Parallel: region.Par != nil,
			Elapsed:  env.cl.Clock(0) - startClock,
			Comm:     env.cl.TotalXferTime() - startComm,
		}
		if region.Par != nil {
			st.LoopVar = region.Par.Loop.Var.Name
			st.Line = region.Par.Loop.Line()
		} else if len(region.Stmts) > 0 {
			st.Line = region.Stmts[0].Line()
		}
		env.regionStats = append(env.regionStats, st)
	}
	return nil
}

// runParRegion executes one parallel region: barrier, scatter+fence,
// partitioned loop, reduction combine, collect+fence.
func (env *Env) runParRegion(pp *postpass.Program, par *postpass.ParInfo, p *mpi.Proc, wins, redWins map[*f77.Symbol]*mpi.Win) error {
	P := p.Size()
	loop, err := env.lw.topLoop(par.Loop)
	if err != nil {
		return err // before any rank communicates: every rank fails alike
	}
	env.flush()
	mpi.Must(p.Barrier())

	// ---- Reductions: every rank accumulates into a private partial
	// starting from the identity; the master's sequential prior value
	// is folded back in at the combine. With lock-based combining the
	// master seeds the shared cell now — before the scatter fence, so
	// every slave's later critical section is ordered after it.
	var reds []redState
	for _, red := range par.Reductions {
		buf := env.storage(env.lw.slots[red.Sym], par.Loop.Line())
		reds = append(reds, redState{red: red, pre: buf[0]})
		buf[0] = reductionIdentity(red.Op)
		if pp.Opts.LockReductions && p.Rank() == 0 {
			// Seed with the prior value so the cell accumulates
			// pre op partial_0 op ... op partial_{P-1}.
			redWins[red.Sym].Local(0)[0] = reds[len(reds)-1].pre
		}
	}

	// ---- Data scattering (§5.4): master → slaves.
	if pp.Opts.TwoSided {
		// MPI-1 baseline: explicit SEND on the master matched by
		// RECEIVE on each slave (both processors involved).
		if p.Rank() == 0 {
			for dst := 1; dst < P; dst++ {
				env.sendOps(p, par, postpass.Scatter, dst, dst)
			}
		} else {
			env.recvOps(p, par, postpass.Scatter, p.Rank(), p.Rank())
		}
	} else if pp.Opts.PullScatter {
		// One-sided pull: each slave GETs its own regions concurrently.
		if p.Rank() != 0 {
			env.moveOps(p, wins, par, postpass.Scatter, p.Rank(), 0, true)
		}
	} else if p.Rank() == 0 {
		for dst := 1; dst < P; dst++ {
			env.moveOps(p, wins, par, postpass.Scatter, dst, dst, false)
		}
	}
	env.flush()
	mpi.Must(p.Barrier()) // fence: all scatters land before compute

	// ---- Partitioned execution (§5.3).
	trips := par.Ctx.Trips()
	myTrips := postpass.RankTrips(trips, p.Rank(), P, par.Schedule)
	env.runPartition(loop, par.Ctx, myTrips)

	// ---- Combine reductions.
	if len(reds) > 0 {
		env.flush()
		if pp.Opts.LockReductions {
			env.combineReductionsLocked(par, p, redWins, reds)
		} else {
			contrib := make([]float64, len(reds))
			for i, rs := range reds {
				partial := env.symStorage(rs.red.Sym)[0]
				if p.Rank() == 0 {
					partial = applyReduction(rs.red.Op, rs.pre, partial)
				}
				contrib[i] = partial
			}
			total, err := p.Allreduce(mpiOp(reds), contrib)
			mpi.Must(err)
			for i, rs := range reds {
				env.symStorage(rs.red.Sym)[0] = total[i]
			}
		}
	}

	// ---- Data collecting (§5.4): slaves → master.
	env.flush()
	if pp.Opts.TwoSided {
		if p.Rank() != 0 {
			env.sendOps(p, par, postpass.Collect, p.Rank(), p.Rank())
		} else {
			for src := 1; src < P; src++ {
				env.recvOps(p, par, postpass.Collect, src, src)
			}
		}
	} else if p.Rank() != 0 {
		env.moveOps(p, wins, par, postpass.Collect, p.Rank(), 0, false)
	}
	env.flush()
	mpi.Must(p.Barrier()) // fence: all collects land before the master continues
	return nil
}

// redState pairs a recognized reduction with the master's sequential
// prior value.
type redState struct {
	red *f77.Reduction
	pre float64
}

// combineReductionsLocked is the paper's §3 lock-based scheme: every
// rank (master included) merges its partial into a shared one-cell
// window on the master inside an MPI_WIN_LOCK critical section; the
// combined value is then broadcast over the V-Bus. The cell was seeded
// with the master's sequential prior value before the scatter fence.
func (env *Env) combineReductionsLocked(par *postpass.ParInfo, p *mpi.Proc, redWins map[*f77.Symbol]*mpi.Win, reds []redState) {
	for _, rs := range reds {
		win := redWins[rs.red.Sym]
		if win == nil {
			env.fail(par.Loop.Line(), "no reduction window for %s", rs.red.Sym.Name)
		}
		partial := env.symStorage(rs.red.Sym)[0]
		tmp := make([]float64, 1)
		cell := mpi.ContigDesc(0, 1)
		mpi.Must(p.Lock(win, 0))
		mpi.Must(p.Get(win, 0, cell, tmp))
		tmp[0] = applyReduction(rs.red.Op, tmp[0], partial)
		mpi.Must(p.Put(win, 0, cell, tmp))
		p.Unlock(win, 0)
	}
	env.flush()
	mpi.Must(p.Barrier()) // all critical sections complete
	// Publish the combined value to every rank via the V-Bus broadcast.
	contrib := make([]float64, len(reds))
	if p.Rank() == 0 {
		for i, rs := range reds {
			contrib[i] = redWins[rs.red.Sym].Local(0)[0]
		}
	}
	total, err := p.Bcast(0, contrib)
	mpi.Must(err)
	for i, rs := range reds {
		env.symStorage(rs.red.Sym)[0] = total[i]
	}
}

// mpiOp maps the (homogeneous) reduction list onto an MPI op. The
// front end groups only identical operators per loop; mixing is a bug
// caught here.
func mpiOp(reds []redState) mpi.Op {
	op := reds[0].red.Op
	for _, r := range reds[1:] {
		if r.red.Op != op {
			panic(runtimeError{fmt.Errorf("interp: mixed reduction operators in one region")})
		}
	}
	switch op {
	case "+":
		return mpi.Sum
	case "*":
		return mpi.Prod
	case "MAX":
		return mpi.Max
	case "MIN":
		return mpi.Min
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

func reductionIdentity(op string) float64 {
	switch op {
	case "+":
		return 0
	case "*":
		return 1
	case "MAX":
		return -1.7976931348623157e308
	case "MIN":
		return 1.7976931348623157e308
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

func applyReduction(op string, a, b float64) float64 {
	switch op {
	case "+":
		return a + b
	case "*":
		return a * b
	case "MAX":
		if a > b {
			return a
		}
		return b
	case "MIN":
		if a < b {
			return a
		}
		return b
	default:
		panic(runtimeError{fmt.Errorf("interp: unknown reduction op %s", op)})
	}
}

// runPartition executes (or bulk-charges) the rank's share of a
// parallel loop under the region's schedule.
func (env *Env) runPartition(l *loop, ctx analysis.LoopCtx, myTrips []int64) {
	env.pending += 3 * env.cpu.IntOpTime
	defer env.setInt(l.v, ctx.From+ctx.Trips()*ctx.Step)
	if len(myTrips) == 0 {
		return
	}
	// The generated SPMD code computes rank-dependent bounds and
	// offsets: slightly costlier per iteration, at every nest level,
	// than the original sequential loops.
	env.spmdTax = env.cpu.SPMDIterOverhead
	defer func() { env.spmdTax = 0 }()
	iterCost := env.cpu.LoopOverhead + env.spmdTax
	if env.mode == Timing && l.bulkable {
		if !l.varDep {
			env.setInt(l.v, ctx.From)
			env.pending += sim.Time(len(myTrips)) * (iterCost + l.bodyCost(env))
			return
		}
		var total sim.Time
		for _, k := range myTrips {
			env.checkCancelled()
			env.setInt(l.v, ctx.From+k*ctx.Step)
			total += iterCost + l.bodyCost(env)
		}
		env.pending += total
		return
	}
	body := l.block()
	for _, k := range myTrips {
		env.checkCancelled()
		env.setInt(l.v, ctx.From+k*ctx.Step)
		env.pending += iterCost
		if body.exec(env) != ctrlNormal {
			env.fail(l.line, "control transfer out of a parallel loop")
		}
	}
}

// sendOps is the two-sided sending half: pack each transfer of rank's
// plan and SEND it (tag identifies the peer pairing).
func (env *Env) sendOps(p *mpi.Proc, par *postpass.ParInfo, dir postpass.Direction, rank, tag int) {
	for _, pl := range postpass.RankPlans(par, dir, rank) {
		dst := 0
		if p.Rank() == 0 {
			dst = rank
		}
		for _, tr := range pl.Plan {
			if env.mode == Timing {
				mpi.Must(p.SendRegion(dst, tag, int(tr.Elems), nil))
				continue
			}
			src := env.symStorage(pl.Sym)
			payload := make([]float64, tr.Elems)
			for i := range payload {
				payload[i] = src[tr.Offset+int64(i)*tr.Stride]
			}
			mpi.Must(p.SendRegion(dst, tag, int(tr.Elems), payload))
		}
	}
}

// recvOps is the matching receiving half: receive each transfer of
// rank's plan (enumerated identically) and unpack it into storage.
func (env *Env) recvOps(p *mpi.Proc, par *postpass.ParInfo, dir postpass.Direction, rank, tag int) {
	from := 0
	if p.Rank() == 0 {
		from = rank
	}
	for _, pl := range postpass.RankPlans(par, dir, rank) {
		for _, tr := range pl.Plan {
			payload, err := p.RecvRegion(from, tag, int(tr.Elems))
			mpi.Must(err)
			if env.mode == Timing || len(payload) == 0 {
				continue
			}
			buf := env.symStorage(pl.Sym)
			for i, v := range payload {
				buf[tr.Offset+int64(i)*tr.Stride] = v
			}
		}
	}
}

// moveOps performs (or, in timing mode, charges) rank's plans of ops as
// one-sided transfers between the caller's storage and target's
// window: PUTs (the master scattering to rank, or slave rank collecting
// to the master), or with get set GETs (slave rank pulling its scatter
// regions from the master).
func (env *Env) moveOps(p *mpi.Proc, wins map[*f77.Symbol]*mpi.Win, par *postpass.ParInfo, dir postpass.Direction, rank, target int, get bool) {
	for _, pl := range postpass.RankPlans(par, dir, rank) {
		win := wins[pl.Sym]
		for _, tr := range pl.Plan {
			d := commcost.FromTransfer(pl.Sym.Name, tr)
			if env.mode == Timing {
				mpi.Must(p.Charge(target, d))
				continue
			}
			local := env.symStorage(pl.Sym)
			switch {
			case tr.Stride == 1 && get:
				mpi.Must(p.Get(win, target, d, local[tr.Offset:tr.Offset+tr.Elems]))
			case tr.Stride == 1:
				mpi.Must(p.Put(win, target, d, local[tr.Offset:tr.Offset+tr.Elems]))
			case get:
				tmp := make([]float64, tr.Elems)
				mpi.Must(p.Get(win, target, d, tmp))
				for i, v := range tmp {
					local[tr.Offset+int64(i)*tr.Stride] = v
				}
			default:
				tmp := make([]float64, tr.Elems)
				for i := range tmp {
					tmp[i] = local[tr.Offset+int64(i)*tr.Stride]
				}
				mpi.Must(p.Put(win, target, d, tmp))
			}
		}
	}
}

// SortedArrayNames lists the arrays in a result for deterministic
// comparison output.
func (r *Result) SortedArrayNames() []string {
	names := make([]string, 0, len(r.Mem))
	for n := range r.Mem {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
