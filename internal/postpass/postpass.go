// Package postpass implements the MPI-2 postpass of §5 — the paper's
// new Polaris back end targeting the V-Bus cluster. It consumes the
// analyzed main unit (parallel loops marked, reductions and privates
// annotated) and produces an SPMD program description:
//
//   - MPI environment generation (§5.1): one memory window per variable
//     accessed remotely;
//   - AVPG construction (§5.2) and elimination of redundant scatter /
//     collect communication at region boundaries;
//   - work partitioning (§5.3): BLOCK for square loops, CYCLIC for
//     triangular ones;
//   - data scattering & collecting (§5.4): ReadOnly → scatter,
//     WriteFirst → collect, ReadWrite → both, driven by split LMADs;
//   - SPMDization (§5.5): barrier/fence points at region boundaries;
//   - communication optimization (§5.6): fine/middle/coarse grain with
//     the overlapped-region race check that forces fine-grain
//     collecting when approximate regions of different slaves overlap.
//
// The result is interpreted by internal/interp on the simulated
// cluster; the per-rank communication plans are computed here so the
// compiler, the interpreter, and the tests all share one source of
// truth.
package postpass

import (
	"cmp"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strings"
	"time"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/avpg"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// Options configures the postpass.
type Options struct {
	// NumProcs is the SPMD process count (master + slaves).
	NumProcs int
	// Grain is the requested communication granularity (§5.6: "it is up
	// to the user that selects the optimal granularity").
	Grain lmad.Grain
	// LiveOutAll treats every array as live at program end, forcing the
	// final writes to be collected to the master (needed whenever the
	// caller inspects results; the AVPG still eliminates interior
	// communication).
	LiveOutAll bool
	// LockReductions combines recognized reductions through an
	// MPI_WIN_LOCK critical section on the master's window (§3:
	// "Locks are useful for establishing critical sections where global
	// operations using shared variables, such as reduction operations,
	// are performed") instead of an Allreduce tree. Serialized but
	// faithful to the paper's target-code description.
	LockReductions bool
	// PullScatter makes the slaves GET their regions from the master's
	// windows instead of the master PUTting to every slave: with
	// one-sided communication either end can drive the transfer (§2.2),
	// and pulling parallelizes the scatter across the slaves instead of
	// serializing it on the master.
	PullScatter bool
	// TwoSided generates MPI-1 style SEND/RECEIVE pairs for data
	// scattering/collecting instead of one-sided PUT/GET: both
	// processors participate and every region is packed/unpacked
	// through message buffers. This is the baseline the paper's §2.2
	// one-sided design argues against; it exists for the ablation.
	TwoSided bool
	// Resilient emits restart-capable SPMD code: regions are grouped
	// into checkpoint epochs (Program.Epochs) and the AVPG's
	// scatter/collect elimination is disabled — an epoch restarted on
	// freshly spawned slaves has no carried-over slave state to reuse,
	// and the master's memory must be complete at every epoch boundary
	// for the checkpoint to be consistent.
	Resilient bool
	// CkptEvery closes a checkpoint epoch after this many parallel
	// regions (minimum 1; only meaningful with Resilient).
	CkptEvery int
	// Coalesce enables the pack-and-coalesce stage: strided
	// scatter/collect transfers at or above the machine's pack crossover
	// are rewritten into pack → contiguous DMA burst → unpack. Off by
	// default so translations (and every table the evaluation prints)
	// are bit-identical to a build without the stage.
	Coalesce bool
	// Machine is the target machine the coalesce stage prices the
	// crossover against; nil means cluster.DefaultParams(). Only the
	// fabric and CPU memcpy rate are consulted.
	Machine *cluster.Params
}

// CommOp is one data-scattering or data-collecting obligation for one
// array access region within a parallel region.
type CommOp struct {
	Sym *f77.Symbol
	// Acc is the access expanded over the full loop nest (parallel loop
	// included).
	Acc analysis.Access
	// ParallelDim indexes Acc.L.Dims at the parallel loop's dimension;
	// -1 means the access is invariant in the parallel loop
	// (replicated: every slave gets/needs the whole region).
	ParallelDim int
	// Reversed notes a negative-coefficient parallel dimension: trip k
	// of the loop maps to lattice position trips-1-k.
	Reversed bool
	// Type is the §4.2 classification that created the op.
	Type lmad.AccType
	// Grain is the effective granularity (may be forced to Fine by the
	// §5.6 race check on collects).
	Grain lmad.Grain
	// RaceFallback records that the §5.6 overlap check demoted this op.
	RaceFallback bool
	// PackThreshold is the machine's pack crossover stamped by the
	// coalesce stage: strided transfers of at least this many elements
	// in the op's rank plans are marked Packed. 0 (the default) leaves
	// every transfer on the per-element PIO path.
	PackThreshold int64
	// RndvThreshold is the machine's eager/rendezvous crossover in
	// elements, stamped by the coalesce stage on protocol-switched
	// fabrics (the cold-cache hops-1 figure): contiguous transfers of
	// at least this many elements in the op's rank plans are stamped
	// rendezvous, smaller ones eager. 0 (the default) leaves every
	// transfer unstamped (ProtoAuto — the runtime decides per message).
	RndvThreshold int64
}

// Region is one schedulable unit of the SPMD program.
type Region struct {
	// Par is nil for a sequential (master-only) region.
	Par *ParInfo
	// Stmts are the statements of a sequential region.
	Stmts []f77.Stmt
}

// ParInfo carries everything the interpreter needs to run one parallel
// region.
type ParInfo struct {
	Loop *f77.DoLoop
	Ctx  analysis.LoopCtx
	// Scatters run at region entry (master → slaves), Collects at exit
	// (slaves → master).
	Scatters []*CommOp
	Collects []*CommOp
	// ScalarBcast lists scalars the slaves read (scattered as
	// one-element windows).
	Reductions []*f77.Reduction
	Schedule   f77.Schedule
	// Procs is the rank count the region was partitioned for
	// (Options.NumProcs).
	Procs int

	// plans memoises RankPlans: once translation has finished, each
	// rank's transfer list is a pure function of the fields above.
	plans planMemo
}

// Program is the SPMD translation of one Fortran program.
type Program struct {
	Source  *f77.Program
	Main    *f77.Unit
	Regions []*Region
	// Windows lists every symbol that needs an MPI window, in
	// deterministic order.
	Windows []*f77.Symbol
	Graph   *avpg.Graph
	Opts    Options
	// Eliminated counts region-boundary comm ops removed by the AVPG.
	EliminatedScatters int
	EliminatedCollects int
	// Epochs groups consecutive region indices into checkpoint epochs
	// (nil unless Opts.Resilient): the resilient interpreter
	// checkpoints after each group and restarts failed runs at the
	// start of the interrupted group.
	Epochs [][]int
}

// Stage names of the postpass interior, in execution order. The core
// compiler pipeline surfaces them (with the front-end passes) through
// vbcc -passes.
const (
	StagePartition      = "partition"
	StageSPMDize        = "spmdize"
	StageScatterCollect = "scatter-collect"
	StageGrainOpt       = "grain-opt"
	StageCoalesce       = "coalesce"
	StageAVPG           = "avpg"
	StageEnvGen         = "env-gen"
	StageResilience     = "resilience"
)

// StageHook observes one completed stage of the postpass: the stage
// name, its wall-clock duration, a short human note, and the program
// under construction (for IR/LMAD dumps). Hooks are observational; they
// must not mutate p.
type StageHook func(stage string, wall time.Duration, note string, p *Program)

// Translate runs the postpass over an analyzed program (the front end
// must have run: see analysis.FrontEnd).
func Translate(prog *f77.Program, opts Options) (*Program, error) {
	return TranslateStaged(prog, opts, nil)
}

// TranslateStaged is Translate with a per-stage hook: the interior of
// the postpass runs as a named, ordered stage pipeline (partition →
// spmdize → scatter-collect → grain-opt → avpg → env-gen), and hook —
// when non-nil — is invoked after each stage with its timing. This is
// the seam instrumentation and future pass-reordering PRs plug into.
func TranslateStaged(prog *f77.Program, opts Options, hook StageHook) (*Program, error) {
	pps, err := TranslateGrains(prog, opts, []lmad.Grain{opts.Grain}, hook)
	if err != nil {
		return nil, err
	}
	return pps[0], nil
}

// TranslateGrains is TranslateStaged once per grain of grains, the
// other options as opts gives them. The partition stage reads only the
// program and its loop annotations, never the grain, so it runs once:
// the hook sees it with the first translation, and every translation
// reads its result, which no later stage writes.
func TranslateGrains(prog *f77.Program, opts Options, grains []lmad.Grain, hook StageHook) ([]*Program, error) {
	if opts.NumProcs < 1 {
		return nil, fmt.Errorf("postpass: need at least one process")
	}
	main := prog.Main()
	if main == nil {
		return nil, fmt.Errorf("postpass: no main program unit")
	}
	var first *translator
	out := make([]*Program, len(grains))
	for i, g := range grains {
		opts.Grain = g
		t := &translator{p: &Program{Source: prog, Main: main, Opts: opts}}
		for _, st := range []struct {
			name string
			run  func(*translator) string
		}{
			{StagePartition, (*translator).partition},
			{StageSPMDize, (*translator).spmdize},
			{StageScatterCollect, (*translator).scatterCollect},
			{StageGrainOpt, (*translator).grainOpt},
			{StageCoalesce, (*translator).coalesce},
			{StageAVPG, (*translator).avpg},
			{StageEnvGen, (*translator).envGen},
			{StageResilience, (*translator).resilience},
		} {
			if st.name == StagePartition && first != nil {
				t.crossJump, t.cands = first.crossJump, first.cands
				continue
			}
			start := time.Now()
			note := st.run(t)
			if hook != nil {
				hook(st.name, time.Since(start), note, t.p)
			}
		}
		if first == nil {
			first = t
		}
		out[i] = t.p
	}
	if first != nil {
		for _, c := range first.cands {
			c.nest.Release()
		}
	}
	return out, nil
}

// translator carries the intermediate state threaded between stages.
type translator struct {
	p *Program
	// crossJump notes a GOTO targeting a top-level label, which forces
	// the whole program into one sequential region.
	crossJump bool
	// cands holds the partition analysis of each viable parallel loop.
	cands map[*f77.DoLoop]*parCandidate
}

// parCandidate is the partition stage's result for one parallel loop.
type parCandidate struct {
	ctx  analysis.LoopCtx
	nest *analysis.Nest
	sum  *lmad.Summary // nest.Summary(), which scatter-collect reads
}

// partition (§5.3) reads every top-level parallel loop's dependence
// record for its bounds and region summary — whether the loop's
// iteration space can be split across ranks at all. Loops that cannot
// stay sequential. It also detects control flow that could jump
// across region boundaries, which defeats the barrier-per-region SPMD
// structure (§5.5 inserts synchronization at exactly these
// control-flow points): if any GOTO targets a label carried by a
// top-level statement, the whole program is kept as one sequential
// region rather than risk a jump out of a region.
func (t *translator) partition() string {
	main := t.p.Main
	topLabels := map[int]bool{}
	for _, s := range main.Body {
		if s.Label() != 0 {
			topLabels[s.Label()] = true
		}
	}
	f77.WalkStmts(main.Body, func(s f77.Stmt) bool {
		if g, ok := s.(*f77.Goto); ok && topLabels[g.Target] {
			t.crossJump = true
		}
		return true
	})
	if t.crossJump {
		return "cross-region GOTO: whole program stays sequential"
	}
	t.cands = map[*f77.DoLoop]*parCandidate{}
	total := 0
	for _, s := range main.Body {
		loop, ok := s.(*f77.DoLoop)
		if !ok || !loop.Parallel {
			continue
		}
		total++
		if cand := partitionLoop(loop); cand != nil {
			t.cands[loop] = cand
		}
	}
	return fmt.Sprintf("%d/%d parallel loops partitionable", len(t.cands), total)
}

// partitionLoop reads one parallel loop's record for communication
// generation: exact compile-time bounds, at least two trips (a rank
// without an iteration would still collect the loop's stores) and a
// body the record analysed whole. It returns nil when the loop stays
// sequential.
func partitionLoop(loop *f77.DoLoop) *parCandidate {
	nest := analysis.NestOf(loop)
	ctx, ok := nest.Outer()
	if !ok || !ctx.Exact || ctx.Trips() < 2 {
		return nil
	}
	return &parCandidate{ctx: ctx, nest: nest, sum: nest.Summary()}
}

// spmdize (§5.5) segments the main body into schedulable regions:
// partitionable top-level parallel loops become parallel regions with
// barrier/fence points at their boundaries; everything else is
// sequential master code.
func (t *translator) spmdize() string {
	p := t.p
	if t.crossJump {
		p.Regions = append(p.Regions, &Region{Stmts: p.Main.Body})
		return "1 region (sequential)"
	}
	var seq []f77.Stmt
	flush := func() {
		if len(seq) > 0 {
			p.Regions = append(p.Regions, &Region{Stmts: seq})
			seq = nil
		}
	}
	par := 0
	for _, s := range p.Main.Body {
		loop, ok := s.(*f77.DoLoop)
		if !ok || !loop.Parallel {
			seq = append(seq, s)
			continue
		}
		cand, ok := t.cands[loop]
		if !ok {
			// Unanalyzable for communication generation: run serially.
			seq = append(seq, s)
			continue
		}
		flush()
		par++
		p.Regions = append(p.Regions, &Region{Par: &ParInfo{
			Loop:       loop,
			Ctx:        cand.ctx,
			Reductions: loop.Reductions,
			Schedule:   loop.Schedule,
			Procs:      p.Opts.NumProcs,
		}})
	}
	flush()
	return fmt.Sprintf("%d regions (%d parallel)", len(p.Regions), par)
}

// scatterCollect (§5.4) generates the communication obligations of
// each parallel region from its split LMADs: ReadOnly → scatter;
// WriteFirst → collect; ReadWrite → both.
func (t *translator) scatterCollect() string {
	scatters, collects := 0, 0
	for _, r := range t.p.Regions {
		if r.Par == nil {
			continue
		}
		info := r.Par
		cand := t.cands[info.Loop]
		mk := func(acc analysis.Access, typ lmad.AccType) *CommOp {
			op := &CommOp{Sym: acc.Sym, Acc: acc, Type: typ, Grain: t.p.Opts.Grain}
			op.ParallelDim = acc.DimOf(info.Loop.Var)
			if op.ParallelDim >= 0 {
				// Negative coefficient: WithDim flipped the offset; the
				// loop's trip order runs backwards along the lattice.
				if c := acc.Coeff(info.Loop.Var); c*cand.ctx.Step < 0 {
					op.Reversed = true
				}
			}
			return op
		}
		for _, typ := range []lmad.AccType{lmad.ReadOnly, lmad.WriteFirst, lmad.ReadWrite} {
			// Accesses of this type already given an op: one descriptor
			// walked in opposite directions along the loop splits
			// differently across ranks, so it is two ops.
			var seen []analysis.Access
		access:
			for _, acc := range cand.nest.AccessesOf(cand.sum, typ) {
				for _, s := range seen {
					if s.L.Equal(acc.L) && s.Coeff(info.Loop.Var) == acc.Coeff(info.Loop.Var) {
						continue access
					}
				}
				seen = append(seen, acc)
				op := mk(acc, typ)
				switch typ {
				case lmad.ReadOnly:
					info.Scatters = append(info.Scatters, op)
				case lmad.WriteFirst:
					info.Collects = append(info.Collects, op)
				case lmad.ReadWrite:
					info.Scatters = append(info.Scatters, op)
					col := mk(acc, typ)
					info.Collects = append(info.Collects, col)
				}
			}
		}
		scatters += len(info.Scatters)
		collects += len(info.Collects)
	}
	return fmt.Sprintf("%d scatters, %d collects", scatters, collects)
}

// grainOpt runs the §5.6 race check ("we implemented a routine to
// check the upper and lower bound of approximate regions"):
// approximate-grain collects must not let a slave's transfer overwrite
// master data it does not own. Checked per array across every collect
// op of every parallel region; violations demote to fine grain.
func (t *translator) grainOpt() string {
	var rc raceCheck
	for _, r := range t.p.Regions {
		if r.Par != nil {
			rc.demoteUnsafeCollects(r.Par, t.p.Opts.NumProcs)
		}
	}
	demoted := 0
	for _, r := range t.p.Regions {
		if r.Par == nil {
			continue
		}
		for _, op := range r.Par.Collects {
			if op.RaceFallback {
				demoted++
			}
		}
	}
	if demoted > 0 {
		return fmt.Sprintf("race check demoted %d collects to fine", demoted)
	}
	return "no demotions"
}

// avpg builds the array-value-propagation graph (§5.2) and eliminates
// the region-boundary communication it proves redundant. Under
// Resilient the elimination is skipped: it assumes slave copies and
// master memory persist across region boundaries, which an epoch
// restart (fresh slaves, checkpointed master) violates.
func (t *translator) avpg() string {
	t.p.buildGraph()
	if t.p.Opts.Resilient {
		return "elimination disabled (resilient epochs restart with fresh slaves)"
	}
	t.p.eliminate()
	return fmt.Sprintf("eliminated %d scatters, %d collects",
		t.p.EliminatedScatters, t.p.EliminatedCollects)
}

// envGen is the MPI environment generation (§5.1): one memory window
// for every symbol that appears in any remaining comm op (plus the
// reduction scalars under lock-based combining).
func (t *translator) envGen() string {
	p := t.p
	winSet := map[*f77.Symbol]bool{}
	for _, r := range p.Regions {
		if r.Par == nil {
			continue
		}
		for _, op := range append(append([]*CommOp{}, r.Par.Scatters...), r.Par.Collects...) {
			winSet[op.Sym] = true
		}
		if p.Opts.LockReductions {
			// The reduction scalars need windows for the lock-based
			// critical sections.
			for _, red := range r.Par.Reductions {
				winSet[red.Sym] = true
			}
		}
	}
	for sym := range winSet {
		p.Windows = append(p.Windows, sym)
	}
	sort.Slice(p.Windows, func(i, j int) bool { return p.Windows[i].Name < p.Windows[j].Name })
	return fmt.Sprintf("%d windows", len(p.Windows))
}

// resilience groups regions into checkpoint epochs for restart-capable
// execution: an epoch closes after Opts.CkptEvery parallel regions
// (trailing sequential regions join the last epoch — there is nothing
// after them worth a checkpoint of their own). Partition regeneration
// for a shrunken rank count is handled by re-running the whole
// pipeline with the new NumProcs; this stage only fixes the epoch
// boundaries the interpreter checkpoints at.
func (t *translator) resilience() string {
	p := t.p
	if !p.Opts.Resilient {
		return "off"
	}
	every := p.Opts.CkptEvery
	if every < 1 {
		every = 1
	}
	var epochs [][]int
	var cur []int
	pars := 0
	for i, r := range p.Regions {
		cur = append(cur, i)
		if r.Par != nil {
			if pars++; pars == every {
				epochs = append(epochs, cur)
				cur, pars = nil, 0
			}
		}
	}
	if len(cur) > 0 {
		if len(epochs) > 0 && pars == 0 {
			last := len(epochs) - 1
			epochs[last] = append(epochs[last], cur...)
		} else {
			epochs = append(epochs, cur)
		}
	}
	p.Epochs = epochs
	return fmt.Sprintf("%d epochs (checkpoint every %d parallel regions)", len(epochs), every)
}

// coverLimit bounds the elements the §5.6 validity rule will account
// for per slave and array; past it the check answers "unsafe".
const coverLimit = 1 << 22

// demoteUnsafeCollects applies the §5.6 safety rule per array:
//
//	(a) the approximate regions transferred by different slaves — and
//	    the master's own exact write region — must be pairwise
//	    disjoint, and
//	(b) every element inside a slave's approximate region must carry a
//	    valid value on that slave: either the slave wrote it (exact
//	    write set of any collect op) or it was scattered to the slave
//	    at region entry (so collecting it returns the master's value).
//
// A violation demotes every collect op of the array to fine grain
// (exact regions are disjoint by the parallelism proof).
func (rc *raceCheck) demoteUnsafeCollects(info *ParInfo, procs int) {
	if procs == 1 {
		return
	}
	for i, first := range info.Collects {
		handled := false // with the array's first op
		for _, op := range info.Collects[:i] {
			handled = handled || op.Sym == first.Sym
		}
		if handled {
			continue
		}
		var ops []*CommOp
		approx := false
		for _, op := range info.Collects[i:] {
			if op.Sym == first.Sym {
				ops = append(ops, op)
				approx = approx || op.Grain != lmad.Fine
			}
		}
		if !approx || rc.safe(info, ops, procs) {
			continue
		}
		for _, op := range ops {
			if op.Grain != lmad.Fine {
				op.Grain = lmad.Fine
				op.RaceFallback = true
			}
		}
	}
}

// box is one transfer's bounding interval and the rank that issues it.
type box struct {
	lo, hi int64
	rank   int
}

// appendBoxes appends the bounding interval of each transfer of runs,
// issued by rank.
func appendBoxes(boxes []box, runs lmad.Runs, rank int) []box {
	reach := (runs.Elems - 1) * runs.Stride
	runs.Each(func(off int64) { boxes = append(boxes, box{off, off + reach, rank}) })
	return boxes
}

func byLo(a, b box) int { return cmp.Compare(a.lo, b.lo) }

// span is one of a slave's merged boxes; pos is its first element's
// index in the coverage bitmap.
type span struct{ lo, hi, pos int64 }

// raceClass is one class of the slaves of an array (rankClasses over
// its collect and scatter ops): its first member, that member's base of
// the array's first collect op, and its boxes, repBoxes[from:to].
type raceClass struct {
	rep      int
	base     int64
	from, to int
}

// raceCheck is the working state of the §5.6 check, its buffers reused
// across the regions, arrays and ranks of a translation.
type raceCheck struct {
	boxes, repBoxes []box
	classes         []raceClass

	// Rule (b)'s account of one slave: a bit per element of the slave's
	// boxes, addressed by position inside the merged boxes (spans), so
	// its size follows what the slave transfers and not the array
	// extent. size is the number of elements in the boxes, set how many
	// of them are marked, outside how many marks fell outside every box.
	spans              []span
	bitmap             []uint64
	size, set, outside int64
	// full records that the marks ran into coverLimit; later marks are
	// dropped, as they were when the limit bounded a per-element set.
	full bool
}

// safe decides rules (a) and (b) for the collect ops of one array,
// reading boxes and marks off the ops' run forms (rankRuns) — no
// transfer list is built. The slaves' runs of the array's ops, collect
// and scatter, are one class member's displaced by one amount, so
// rankRuns runs once per class and op, and rule (b), which a
// displacement cannot change, once per class; the master is fine-grain.
func (rc *raceCheck) safe(info *ParInfo, ops []*CommOp, procs int) bool {
	all := slices.Clip(ops)
	for _, sop := range info.Scatters {
		if sop.Sym == ops[0].Sym {
			all = append(all, sop)
		}
	}
	scatters := all[len(ops):]
	// Per-rank transferred intervals (master: exact writes, since it
	// transfers nothing but its results must not be clobbered).
	rc.boxes, rc.repBoxes, rc.classes = rc.boxes[:0], rc.repBoxes[:0], rc.classes[:0]
	for _, op := range ops {
		rc.boxes = appendBoxes(rc.boxes, rankRuns(op, lmad.Fine, 0, procs, info.Schedule), 0)
	}
	rankClasses(all, make([]int, len(all)), 1, procs, info.Schedule, func(r, c int, bases []int64) {
		if c == len(rc.classes) {
			from := len(rc.repBoxes)
			for _, op := range ops {
				rc.repBoxes = appendBoxes(rc.repBoxes, rankRuns(op, op.Grain, r, procs, info.Schedule), r)
			}
			rc.classes = append(rc.classes, raceClass{r, bases[0], from, len(rc.repBoxes)})
		}
		cl := rc.classes[c]
		for _, b := range rc.repBoxes[cl.from:cl.to] {
			rc.boxes = append(rc.boxes, box{b.lo + bases[0] - cl.base, b.hi + bases[0] - cl.base, r})
		}
	})
	// (a) disjointness across ranks: in order of lower bound, a box
	// meets an earlier box of another rank iff the highest upper bound
	// seen so far on another rank reaches it. Tracking the highest
	// bound, and the highest on any rank other than that one's, answers
	// that for every rank.
	slices.SortFunc(rc.boxes, byLo)
	top, next := box{hi: -1 << 62, rank: -1}, box{hi: -1 << 62, rank: -1}
	for _, b := range rc.boxes {
		other := top
		if b.rank == top.rank {
			other = next
		}
		if other.hi >= b.lo {
			return false
		}
		switch {
		case b.hi > top.hi && b.rank == top.rank:
			top = b
		case b.hi > top.hi:
			top, next = b, top
		case b.hi > next.hi && b.rank != top.rank:
			next = b
		}
	}
	// (b) slave-side validity, box elements ⊆ writes ∪ scattered, on
	// each class's first member.
	for _, cl := range rc.classes {
		mine := rc.repBoxes[cl.from:cl.to]
		if len(mine) == 0 {
			continue
		}
		slices.SortFunc(mine, byLo)
		if !rc.cover(mine) {
			return false
		}
		for _, op := range ops {
			rc.mark(rankRuns(op, lmad.Fine, cl.rep, procs, info.Schedule)) // exact writes
		}
		for _, sop := range scatters {
			rc.mark(rankRuns(sop, sop.Grain, cl.rep, procs, info.Schedule))
		}
		if rc.set != rc.size {
			return false
		}
	}
	return true
}

// cover starts rule (b)'s account of one slave: its boxes (ordered by
// lower bound) merged into disjoint spans, and a cleared bitmap over
// them. It reports false when the boxes hold more than coverLimit
// elements, counted box by box.
func (rc *raceCheck) cover(boxes []box) bool {
	rc.spans = rc.spans[:0]
	rc.size, rc.set, rc.outside, rc.full = 0, 0, 0, false
	var need int64
	for _, b := range boxes {
		need += b.hi - b.lo + 1
		if n := len(rc.spans); n > 0 && b.lo <= rc.spans[n-1].hi+1 {
			if last := &rc.spans[n-1]; b.hi > last.hi {
				rc.size += b.hi - last.hi
				last.hi = b.hi
			}
			continue
		}
		rc.spans = append(rc.spans, span{b.lo, b.hi, rc.size})
		rc.size += b.hi - b.lo + 1
	}
	if need > coverLimit {
		return false
	}
	words := int((rc.size + 63) / 64)
	if cap(rc.bitmap) < words {
		rc.bitmap = make([]uint64, words)
	}
	rc.bitmap = rc.bitmap[:words]
	clear(rc.bitmap)
	return true
}

// mark records every element of every transfer of runs as valid on the
// slave being covered.
func (rc *raceCheck) mark(runs lmad.Runs) {
	runs.Each(func(off int64) {
		// The limit counts distinct marked elements inside the boxes and
		// every mark outside them, and stops before a transfer that
		// could pass it: never later than a count of distinct elements.
		if rc.full || rc.set+rc.outside+runs.Elems > coverLimit {
			rc.full = true
			return
		}
		hi := off + (runs.Elems-1)*runs.Stride
		i := sort.Search(len(rc.spans), func(i int) bool { return rc.spans[i].hi >= off })
		inside := int64(0)
		if runs.Stride == 1 {
			for ; i < len(rc.spans) && rc.spans[i].lo <= hi; i++ {
				sp := rc.spans[i]
				from, to := max(off, sp.lo), min(hi, sp.hi)
				inside += to - from + 1
				rc.set += setBits(rc.bitmap, sp.pos+from-sp.lo, sp.pos+to-sp.lo+1)
			}
		} else {
			for e := off; e <= hi && i < len(rc.spans); e += runs.Stride {
				for i < len(rc.spans) && rc.spans[i].hi < e {
					i++
				}
				if i < len(rc.spans) && rc.spans[i].lo <= e {
					at := rc.spans[i].pos + e - rc.spans[i].lo
					inside++
					rc.set += setBits(rc.bitmap, at, at+1)
				}
			}
		}
		rc.outside += runs.Elems - inside
	})
}

// setBits sets bits [from, to) and returns how many were clear.
func setBits(bitmap []uint64, from, to int64) int64 {
	fresh := 0
	for from < to {
		w, lo := from/64, uint(from%64)
		n := min(int64(64-lo), to-from)
		mask := (^uint64(0) >> (64 - uint(n))) << lo
		fresh += bits.OnesCount64(mask &^ bitmap[w])
		bitmap[w] |= mask
		from += n
	}
	return int64(fresh)
}

// buildGraph records array usage per region into the AVPG, with a
// virtual trailing region for live-out values.
func (p *Program) buildGraph() {
	n := len(p.Regions) + 1 // +1 virtual end region
	g := avpg.New(n)
	for i, r := range p.Regions {
		if r.Par != nil {
			for _, op := range r.Par.Scatters {
				g.Record(i, op.Sym.Name, true, false)
			}
			for _, op := range r.Par.Collects {
				g.Record(i, op.Sym.Name, false, true)
			}
			continue
		}
		// Sequential region: the master touches data directly; record
		// reads and writes so liveness sees them.
		f77.WalkStmts(r.Stmts, func(s f77.Stmt) bool {
			if a, ok := s.(*f77.Assign); ok {
				g.Record(i, a.LHS.Sym.Name, false, true)
			}
			f77.StmtExprs(s, func(e f77.Expr) {
				f77.WalkExpr(e, func(sub f77.Expr) {
					switch v := sub.(type) {
					case *f77.VarExpr:
						g.Record(i, v.Sym.Name, true, false)
					case *f77.ArrayExpr:
						g.Record(i, v.Sym.Name, true, false)
					}
				})
			})
			return true
		})
	}
	if p.Opts.LiveOutAll {
		// The virtual end region reads everything ever written.
		for _, a := range g.Arrays() {
			g.Record(n-1, a, true, false)
		}
	}
	p.Graph = g
}

// eliminate drops redundant comm ops using the AVPG (§5.2): a collect
// whose value is dead afterwards, and a scatter whose slave copies are
// already fresh (nothing wrote the array since the last scatter).
func (p *Program) eliminate() {
	fresh := map[string]bool{} // array → slaves hold the master's current value
	for i, r := range p.Regions {
		if r.Par == nil {
			// Master writes invalidate slave copies.
			f77.WalkStmts(r.Stmts, func(s f77.Stmt) bool {
				if a, ok := s.(*f77.Assign); ok {
					fresh[a.LHS.Sym.Name] = false
				}
				return true
			})
			continue
		}
		var keptS []*CommOp
		for _, op := range r.Par.Scatters {
			if fresh[op.Sym.Name] {
				p.EliminatedScatters++
				continue
			}
			keptS = append(keptS, op)
		}
		r.Par.Scatters = keptS
		// After scatter, slaves are fresh for those arrays — but a
		// partitioned scatter only delivers each slave its own part, so
		// freshness holds for identical access patterns. Conservative:
		// mark fresh only for replicated scatters.
		for _, op := range keptS {
			if op.ParallelDim < 0 {
				fresh[op.Sym.Name] = true
			}
		}
		var keptC []*CommOp
		for _, op := range r.Par.Collects {
			if !p.Graph.NeedCollect(i, op.Sym.Name) {
				p.EliminatedCollects++
				continue
			}
			keptC = append(keptC, op)
		}
		r.Par.Collects = keptC
		// Writes during the region make slave copies of the written
		// arrays stale (each slave only has its own part up to date).
		for _, op := range keptC {
			fresh[op.Sym.Name] = false
		}
	}
}

// String renders a compact report of the translation.
func (p *Program) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "SPMD program: %d regions, %d windows, grain=%v, P=%d",
		len(p.Regions), len(p.Windows), p.Opts.Grain, p.Opts.NumProcs)
	if p.Opts.LockReductions {
		sb.WriteString(", lock-reductions")
	}
	if p.Opts.PullScatter {
		sb.WriteString(", pull-scatter")
	}
	if p.Opts.TwoSided {
		sb.WriteString(", two-sided")
	}
	sb.WriteByte('\n')
	for i, r := range p.Regions {
		if r.Par == nil {
			fmt.Fprintf(&sb, "  region %d: sequential (%d statements)\n", i, len(r.Stmts))
			continue
		}
		fmt.Fprintf(&sb, "  region %d: parallel DO %s = %d,%d,%d schedule=%v\n",
			i, r.Par.Loop.Var.Name, r.Par.Ctx.From, r.Par.Ctx.To, r.Par.Ctx.Step, r.Par.Schedule)
		for _, op := range r.Par.Scatters {
			fmt.Fprintf(&sb, "    scatter %-10s %v %s\n", op.Sym.Name, op.Type, op.Acc.L)
		}
		for _, op := range r.Par.Collects {
			extra := ""
			if op.RaceFallback {
				extra = " (race check → fine)"
			}
			fmt.Fprintf(&sb, "    collect %-10s %v %s grain=%v%s\n", op.Sym.Name, op.Type, op.Acc.L, op.Grain, extra)
		}
	}
	fmt.Fprintf(&sb, "  AVPG eliminated %d scatters, %d collects\n", p.EliminatedScatters, p.EliminatedCollects)
	return sb.String()
}
