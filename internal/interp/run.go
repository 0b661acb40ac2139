package interp

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/ckpt"
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
	// Checkpoints counts the coordinated checkpoints a parallel run
	// committed (zero for RunSequential and for translations without
	// checkpoint epochs).
	Checkpoints int
	// Recoveries counts the shrink-and-replay rounds a parallel run
	// survived (zero for RunSequential and without
	// RunConfig.Retranslate).
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

// FormatRegions renders a per-region profile as a table.
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
	var block []float64
	if mode == Full {
		block = *lw.frame(false)
	}
	env, err := newEnv(lw, cl, 0, 0, mode, &out, block)
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

// RunConfig bounds and supervises a parallel execution from outside.
type RunConfig struct {
	// Ctx, when non-nil, bounds the run: once it is cancelled (a job
	// deadline, an HTTP client abort) the current MPI world is cancelled
	// and every rank unwinds with an mpi.ErrCancelled error instead of
	// running — or blocking — forever. Nil means no external bound.
	Ctx context.Context
	// Retranslate, when non-nil, makes rank crashes survivable: it
	// recompiles the postpass for the shrunken rank count after a
	// recovery (the front-end analysis is rank-count independent, so
	// only the SPMD translation reruns). Nil: a crash is the run's error.
	Retranslate func(n int) (*postpass.Program, error)
	// Dir, when non-empty, persists every committed checkpoint as
	// epoch-NNN.vbck under this directory (created if missing). Empty
	// keeps checkpoints in memory only — the recovery protocol is
	// identical, nothing touches the filesystem.
	Dir string
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
//
// Regions run epoch by epoch (pp.Epochs, from the resilience pass)
// with a coordinated checkpoint after every epoch but the last; a
// translation without epochs is one epoch and takes no checkpoint. A
// rank that fails revokes the world and departs, so no peer stays
// blocked on it, and the run's error is the root cause (rootError).
// With cfg.Retranslate set, a rank crash is survived ULFM-style: the
// survivors Agree on the failed set, Shrink to a world over the
// surviving nodes, the program is retranslated for them, and execution
// replays from the last committed checkpoint (from the start when none
// was committed yet). Virtual clocks never rewind: replayed work,
// checkpoint and recovery rounds all show up in the report.
func (lw *Lowered) RunParallel(pp *postpass.Program, cl *cluster.Cluster, mode Mode, cfg RunConfig) (*Result, error) {
	if err := lw.translated(pp, cl); err != nil {
		return nil, err
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, err
		}
	}
	s := &supervisor{lw: lw, mode: mode, dir: cfg.Dir, pp: pp}
	world := mpi.NewWorld(cl)
	stop := watchCancel(cfg.Ctx, world)
	defer func() { stop(); world.Shutdown() }()
	for {
		res, err := s.attempt(world)
		if err == nil {
			return res, nil
		}
		world.Shutdown()
		var me *mpi.Error
		if cfg.Retranslate == nil || world.Cancelled() || !errors.As(err, &me) {
			return nil, err // not survivable: no recovery round is charged
		}
		failed := world.Agree()
		if len(failed) == 0 {
			return nil, err // no rank actually crashed
		}
		nw, serr := world.Shrink(failed)
		if serr != nil {
			return nil, fmt.Errorf("interp: unrecoverable: %v (after %w)", serr, err)
		}
		world = nw
		if s.pp, err = cfg.Retranslate(world.Size()); err != nil {
			return nil, fmt.Errorf("interp: retranslate for %d survivors: %w", world.Size(), err)
		}
		if s.pp.Source != lw.prog {
			return nil, fmt.Errorf("interp: retranslation for %d survivors is of a different program", world.Size())
		}
		stop()
		stop = watchCancel(cfg.Ctx, world)
		s.recoveries++
	}
}

// supervisor is one parallel run across its attempts: the first on the
// full world and, after each survived crash, one on the shrunken world
// with the program retranslated for the survivors. Between attempts
// only the supervisor touches it; during one the rank goroutines read
// the attempt fields, each Full-mode rank sets its own frames entry,
// and only rank 0 writes the rest, when it commits.
type supervisor struct {
	lw   *Lowered
	mode Mode
	dir  string
	// pp is the translation the current attempt runs, out the master's
	// output, and from its restore point (nil: the program start) with
	// fromLen the encoded size a Recover round prices.
	pp      *postpass.Program
	out     bytes.Buffer
	from    *ckpt.Snapshot
	fromLen int
	// last is the last committed checkpoint, lastLen its encoded size.
	last                    *ckpt.Snapshot
	lastLen                 int
	checkpoints, recoveries int
	// wins and redWins are the current attempt's windows (rankRun),
	// resolved once on its world and read by every rank.
	wins, redWins []*mpi.Win
	// frames holds, in Full mode, each rank's array block of the
	// current attempt (Lowered.frame), indexed by rank; only the
	// slaves' (frames[1:]) go back to the pool.
	frames []*[]float64
}

// attempt runs the current translation once on world, every rank from
// the last committed checkpoint, and returns the result or the root
// cause of the failure.
func (s *supervisor) attempt(world *mpi.World) (*Result, error) {
	s.from, s.fromLen = s.last, s.lastLen
	s.out.Reset()
	if s.from != nil {
		s.out.Write(s.from.Output)
	}
	s.wins, s.redWins = s.windows(world)
	P := world.Size()
	envs := make([]*Env, P)
	errs := make([]error, P)
	if s.mode == Full {
		s.frames = make([]*[]float64, P)
	}
	var wg sync.WaitGroup
	wg.Add(P)
	for r := 0; r < P; r++ {
		go func(rank int) {
			defer wg.Done()
			envs[rank], errs[rank] = s.runRank(world.Rank(rank))
			if errs[rank] != nil {
				// The failing rank revokes the world so every blocked
				// peer fails over instead of deadlocking, then departs.
				world.Revoke()
				world.Depart(rank)
			}
		}(r)
	}
	wg.Wait()
	if err := rootError(errs); err != nil {
		return nil, err // its slaves' blocks stay out of the pool
	}
	// Every rank is done with its block; the next run clears the
	// slaves'. The master's stays out, because Result.Mem hands out its
	// arrays.
	if s.mode == Full {
		for _, f := range s.frames[1:] {
			s.lw.frames.Put(f)
		}
	}
	rep := world.Cluster().Snapshot()
	return &Result{
		Report:      rep,
		Elapsed:     rep.ElapsedVirtual(),
		Mem:         finalMem(envs[0]),
		Output:      s.out.String(),
		Regions:     envs[0].regionStats,
		Checkpoints: s.checkpoints,
		Recoveries:  s.recoveries,
	}, nil
}

// rootError picks the error to report from one attempt: the root
// cause, not the collateral — revocations and peer-crash observations
// exist only because some other rank failed first.
func rootError(errs []error) error {
	var first error
	for _, e := range errs {
		if e == nil {
			continue
		}
		if first == nil {
			first = e
		}
		var me *mpi.Error
		if !errors.As(e, &me) || (me.Kind != mpi.ErrRevoked && me.Kind != mpi.ErrPeerCrashed) {
			return e
		}
	}
	return first
}

// watchCancel cancels world once ctx is done — at once if it already
// is — so blocked and computing ranks both unwind, and returns the
// function that stops watching. A nil ctx is never done.
func watchCancel(ctx context.Context, world *mpi.World) (stop func() bool) {
	if ctx == nil {
		return func() bool { return false }
	}
	if ctx.Err() != nil {
		world.Cancel()
	}
	return context.AfterFunc(ctx, world.Cancel)
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
	// rank keeps updating during the partitioned loop). Both are
	// indexed by the symbol's lowered slot, nil where it has none, and
	// shared by every rank of the attempt (supervisor.windows).
	wins, redWins []*mpi.Win
	halted        bool
}

// windows resolves the translation's §5.1 windows on world: one over
// every remotely accessed variable and, under lock-based combining, a
// one-cell window per reduction scalar, indexed by the symbol's lowered
// slot (nil where it has none; redWins is nil without lock-based
// combining).
func (s *supervisor) windows(world *mpi.World) (wins, redWins []*mpi.Win) {
	slots := s.lw.slots
	wins = make([]*mpi.Win, len(slots))
	for _, sym := range s.pp.Windows {
		if s.mode == Full { // Timing runs only charge transfers, through no window
			wins[slots[sym]] = world.Win(sym.Name)
		}
	}
	if !s.pp.Opts.LockReductions {
		return wins, nil
	}
	redWins = make([]*mpi.Win, len(slots))
	for _, region := range s.pp.Regions {
		if region.Par == nil {
			continue
		}
		for _, red := range region.Par.Reductions {
			if slot := slots[red.Sym]; redWins[slot] == nil {
				redWins[slot] = world.Win(red.Sym.Name + "$RED")
			}
		}
	}
	return wins, redWins
}

// createWindows generates the rank's MPI environment (§5.1): it
// exposes the rank's region of every window (a Timing run has only the
// reduction windows) and then synchronizes once per window of the
// translation, in one rendezvous. Window creation is collective, so
// every rank calls this at the same point of its run.
func (r *rankRun) createWindows() {
	rank, slots := r.p.Rank(), r.env.lw.slots
	for _, sym := range r.pp.Windows {
		if win := r.wins[slots[sym]]; win != nil {
			win.Expose(rank, r.env.symStorage(sym))
		}
	}
	k := len(r.pp.Windows)
	for _, win := range r.redWins {
		if win != nil {
			win.Expose(rank, make([]float64, 1))
			k++
		}
	}
	mpi.Must(r.p.Barriers(k))
}

// runRank is one rank's part of an attempt: from the restore point (the
// master restores the snapshot and, after a recovery, republishes it in
// a Recover round), epoch by epoch, with a coordinated checkpoint after
// every epoch but the last.
func (s *supervisor) runRank(p *mpi.Proc) (env *Env, err error) {
	defer recoverRun(&err)
	sink := &s.out
	if p.Rank() != 0 {
		sink = &bytes.Buffer{} // slaves' prints are discarded
	}
	var block []float64
	if s.mode == Full {
		s.frames[p.Rank()] = s.lw.frame(p.Rank() != 0)
		block = *s.frames[p.Rank()]
	}
	if env, err = newEnv(s.lw, p.World().Cluster(), p.Rank(), p.Node(), s.mode, sink, block); err != nil {
		return nil, err
	}
	env.world = p.World()
	r := &rankRun{env: env, pp: s.pp, p: p, wins: s.wins, redWins: s.redWins}
	start := 0
	if s.from != nil {
		start = s.from.Epoch
		r.halted = s.from.Halted
	}
	if p.Rank() == 0 {
		if s.from == nil {
			// "the master initially holds all program data objects".
			env.applyData(s.lw.main)
		} else if err := env.restoreSnapshot(s.from); err != nil {
			return env, err
		}
	}
	if s.from != nil {
		size := 0
		if p.Rank() == 0 {
			size = s.fromLen
		}
		if err := p.Recover(size); err != nil {
			return env, err
		}
	}
	r.createWindows()
	epochs := max(len(s.pp.Epochs), 1)
	for e := start; e < epochs; e++ {
		if err := r.epoch(e); err != nil {
			return env, err
		}
		if e < epochs-1 {
			if err := s.checkpoint(r, e+1); err != nil {
				return env, err
			}
		}
	}
	env.flush()
	return env, nil
}

// epoch executes checkpoint epoch e of the translation; a translation
// without epochs is one epoch spanning every region.
func (r *rankRun) epoch(e int) error {
	if r.pp.Epochs != nil {
		for _, ri := range r.pp.Epochs[e] {
			if err := r.region(ri); err != nil {
				return err
			}
		}
		return nil
	}
	for ri := range r.pp.Regions {
		if err := r.region(ri); err != nil {
			return err
		}
	}
	return nil
}

// region executes region ri of the translation and, on the master,
// appends its profile row.
func (r *rankRun) region(ri int) error {
	r.env.checkCancelled()
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
func (env *Env) runParRegion(pp *postpass.Program, par *postpass.ParInfo, p *mpi.Proc, wins, redWins []*mpi.Win) error {
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
			redWins[env.lw.slots[red.Sym]].Local(0)[0] = reds[len(reds)-1].pre
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
	first, step, count := postpass.RankTrips(trips, p.Rank(), P, par.Schedule)
	env.runPartition(loop, par.Ctx, first, step, count)
	if env.mode == Full {
		// The rank's share is done: collects may land in its arrays.
		p.Post()
	}

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
func (env *Env) combineReductionsLocked(par *postpass.ParInfo, p *mpi.Proc, redWins []*mpi.Win, reds []redState) {
	for _, rs := range reds {
		win := redWins[env.lw.slots[rs.red.Sym]]
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
			contrib[i] = redWins[env.lw.slots[rs.red.Sym]].Local(0)[0]
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
// parallel loop under the region's schedule: count trips first,
// first+step, … (postpass.RankTrips).
func (env *Env) runPartition(l *loop, ctx analysis.LoopCtx, first, step, count int64) {
	env.pending += 3 * env.cpu.IntOpTime
	defer env.setInt(l.v, ctx.From+ctx.Trips()*ctx.Step)
	if count == 0 {
		return
	}
	// The generated SPMD code computes rank-dependent bounds and
	// offsets: slightly costlier per iteration, at every nest level,
	// than the original sequential loops.
	env.spmdTax = env.cpu.SPMDIterOverhead
	defer func() { env.spmdTax = 0 }()
	iterCost := env.cpu.LoopOverhead + env.spmdTax
	from, stride := ctx.From+first*ctx.Step, step*ctx.Step
	if env.mode == Timing && l.bulkable {
		if !l.varDep {
			env.setInt(l.v, ctx.From)
			env.pending += sim.Time(count) * (iterCost + l.bodyCost(env))
			return
		}
		var total sim.Time
		for i := int64(0); i < count; i++ {
			env.checkCancelled()
			env.setInt(l.v, from+i*stride)
			total += iterCost + l.bodyCost(env)
		}
		env.pending += total
		return
	}
	if l.straight && l.onTape(env, from, stride, count) {
		return
	}
	body := l.block()
	for i := int64(0); i < count; i++ {
		env.checkCancelled()
		env.setInt(l.v, from+i*stride)
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
		env.inBounds(par, &pl, rank)
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
				payload[i] = src[pl.Shift+tr.Offset+int64(i)*tr.Stride]
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
		env.inBounds(par, &pl, rank)
		for _, tr := range pl.Plan {
			payload, err := p.RecvRegion(from, tag, int(tr.Elems))
			mpi.Must(err)
			if env.mode == Timing || len(payload) == 0 {
				continue
			}
			buf := env.symStorage(pl.Sym)
			for i, v := range payload {
				buf[pl.Shift+tr.Offset+int64(i)*tr.Stride] = v
			}
		}
	}
}

// inBounds fails a Full-mode run whose rank's plan pl reaches outside
// its array (SymPlan.Outside, marked once when the plan is built): a
// subscript of the region's loop runs out of bounds on rank's
// iterations, which the sequential run reports as the loop executes.
func (env *Env) inBounds(par *postpass.ParInfo, pl *postpass.SymPlan, rank int) {
	if pl.Outside && env.mode == Full {
		lo, hi := pl.Reach()
		env.fail(par.Loop.Line(), "%s subscript out of bounds: rank %d's share reaches linear indices %d to %d, size %d",
			pl.Sym.Name, rank, lo, hi-1, len(env.symStorage(pl.Sym)))
	}
}

// moveOps performs (or, in timing mode, only charges) rank's plans of
// ops as one-sided transfers between the caller's storage and target's
// window: PUTs (the master scattering to rank, or slave rank collecting
// to the master), or with get set GETs (slave rank pulling its scatter
// regions from the master). Both modes charge every planned transfer,
// redundant bytes included; Full mode then copies each plan entry's
// cover, every element the entry's transfers move, once.
func (env *Env) moveOps(p *mpi.Proc, wins []*mpi.Win, par *postpass.ParInfo, dir postpass.Direction, rank, target int, get bool) {
	plans := postpass.RankPlans(par, dir, rank)
	for _, pl := range plans {
		for _, tr := range pl.Plan {
			tr.Offset += pl.Shift
			mpi.Must(p.Charge(target, commcost.FromTransfer(pl.Sym.Name, tr), get))
		}
	}
	if env.mode == Timing {
		return
	}
	for i, cover := range postpass.RankCovers(par, dir, rank) {
		pl := plans[i]
		env.inBounds(par, &pl, rank)
		mpi.Must(p.CopySpans(wins[env.lw.slots[pl.Sym]], target, cover, pl.Shift, env.symStorage(pl.Sym), get))
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
