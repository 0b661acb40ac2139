package postpass

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// BlockPart computes rank's balanced block partition of trips
// iterations: the half-open trip range [start, start+count).
func BlockPart(trips int64, rank, procs int) (start, count int64) {
	lo := trips * int64(rank) / int64(procs)
	hi := trips * int64(rank+1) / int64(procs)
	return lo, hi - lo
}

// RankTrips returns the 0-based trip indices rank executes under the
// given schedule as a progression: count trips first, first+step, ….
// A block share steps by 1, a cyclic one by procs.
func RankTrips(trips int64, rank, procs int, sched f77.Schedule) (first, step, count int64) {
	if sched == f77.SchedCyclic { // rank < procs, so count is never negative
		return int64(rank), int64(procs), (trips - int64(rank) + int64(procs) - 1) / int64(procs)
	}
	first, count = BlockPart(trips, rank, procs)
	return first, 1, count
}

// RankPlan computes the §5.4/§5.6 communication plan for one op and one
// rank: the op's access region restricted to the rank's partition of
// the parallel dimension, expanded into MPI_PUT/MPI_GET transfers at
// the op's effective granularity. A replicated op (ParallelDim == -1)
// plans the whole region for every rank. An empty plan means the rank
// moves nothing. When the coalesce stage stamped a pack threshold on
// the op, qualifying strided transfers come back marked Packed; a
// rendezvous threshold likewise stamps contiguous transfers with the
// compiler's eager/rendezvous protocol choice. It is the
// materialisation of rankRuns.
func RankPlan(op *CommOp, ctx analysis.LoopCtx, rank, procs int, sched f77.Schedule) []lmad.Transfer {
	return materialise(op, rankRuns(op, op.Grain, rank, procs, sched))
}

// materialise enumerates an op's runs into stamped transfers; nil when
// there are none.
func materialise(op *CommOp, runs lmad.Runs) []lmad.Transfer {
	if runs.N == 0 {
		return nil
	}
	return stamp(op, runs.Transfers())
}

// stamp applies the op's coalesce-stage thresholds to a plan in place.
// Both marks depend only on a transfer's shape, so stamping one run's
// shape stamps all its transfers.
func stamp(op *CommOp, plan []lmad.Transfer) []lmad.Transfer {
	return lmad.MarkRendezvous(lmad.MarkPacked(plan, op.PackThreshold), op.RndvThreshold)
}

// rankRuns is RankPlan before enumeration and stamping, at granularity g
// (the op's own, except where the §5.6 race check asks what another
// grain would move): the rank's partition of the op's region as a count
// of equal-shaped transfers. Zero runs (N == 0) means the rank moves
// nothing.
func rankRuns(op *CommOp, g lmad.Grain, rank, procs int, sched f77.Schedule) lmad.Runs {
	l := op.Acc.L
	start, count, _ := rankPart(op, rank, procs, sched)
	switch {
	case count < 0:
		return lmad.PlanRuns(l, g)
	case count == 0:
		return lmad.Runs{}
	case sched == f77.SchedCyclic:
		part, _ := l.CycleDim(op.ParallelDim, start, int64(procs))
		return lmad.PlanRuns(part, g)
	default:
		return lmad.PlanRuns(l.RestrictDim(op.ParallelDim, start, count), g)
	}
}

// rankPart is rank's part of op's parallel dimension: count lattice
// positions from start (RankTrips' progression; trip k of a reversed op
// is position trips-1-k), the first at element offset base. count is 0
// for an empty part and -1 for a replicated op; base is then 0.
func rankPart(op *CommOp, rank, procs int, sched f77.Schedule) (start, count, base int64) {
	if op.ParallelDim < 0 {
		return 0, -1, 0
	}
	d := op.Acc.L.Dims[op.ParallelDim]
	first, step, count := RankTrips(d.Trips(), rank, procs, sched)
	if count == 0 {
		return 0, 0, 0
	}
	if op.Reversed {
		first = d.Trips() - 1 - (first + (count-1)*step)
	}
	return first, count, first * d.Stride
}

// SymPlan is one entry of a rank's transfer list: the transfers that
// move one array's regions. The ranks of a class (classTable) share
// Plan; each moves its transfers and cover displaced by its own Shift.
// Outside says the displaced transfers reach an element outside the
// array: a subscript of the region's loop runs out of bounds on this
// rank's iterations, which a run must report instead of moving.
type SymPlan struct {
	Sym     *f77.Symbol
	Plan    []lmad.Transfer
	Shift   int64
	Outside bool
}

// Reach returns the lowest element pl's displaced transfers touch and
// one past the highest (lo == hi for no element).
func (pl *SymPlan) Reach() (lo, hi int64) {
	lo, hi = reach(pl.Plan)
	return lo + pl.Shift, hi + pl.Shift
}

func reach(plan []lmad.Transfer) (lo, hi int64) {
	lo, hi = math.MaxInt64, math.MinInt64
	for _, t := range plan {
		if t.Elems > 0 { // a transfer's stride is positive
			lo, hi = min(lo, t.Offset), max(hi, t.Offset+(t.Elems-1)*t.Stride+1)
		}
	}
	if lo > hi {
		return 0, 0
	}
	return lo, hi
}

// Direction selects one of a parallel region's two transfer lists.
type Direction int

const (
	// Scatter is the region-entry direction, master → slaves.
	Scatter Direction = iota
	// Collect is the region-exit direction, slaves → master.
	Collect
)

// planMemo holds a region's rank classes, one table per direction, made
// by the first call that needs it (a run's or the estimator's). A
// class's plans are built by the first of its ranks to ask, its covers
// when a Full run first asks; all are immutable after.
type planMemo struct {
	once   [2]sync.Once
	tables [2]classTable
}

// classTable sorts one direction's ranks into classes whose transfer
// lists are one plan displaced per entry. rankRuns restricts op o to
// n_o positions from base b_o (rankPart), so ranks with equal n_o plan
// o alike, b_o apart; a coarse array's merged entry also needs equal
// b_o − b_first within it. The key is those integers.
type classTable struct {
	ops     []*CommOp
	lead    []int // per op: the first op of its coarse-merged array, or -1
	ref     []int // per entry: the op whose base displaces it
	ranks   []classRank
	classes []rankClass
}

// classRank places a rank: its class, its slot among the class's
// members, and the next member (-1 after the last).
type classRank struct{ class, slot, next int32 }

// rankClass is its first member's plan (rep) and every member's view
// of it, len(ref) SymPlans per slot.
type rankClass struct {
	rep, head, size int
	once, coverOnce sync.Once
	views           []SymPlan
	covers          [][]lmad.Span
}

// classes returns the class table of one direction of par.
func classes(par *ParInfo, dir Direction) *classTable {
	m := &par.plans
	m.once[dir].Do(func() { m.tables[dir] = newClassTable(par, dir) })
	return &m.tables[dir]
}

func newClassTable(par *ParInfo, dir Direction) classTable {
	t := classTable{ops: par.ops(dir), ranks: make([]classRank, par.Procs)}
	var leads []int // planRank's merged entries, in order
	for i, op := range t.ops {
		lead := -1
		if op.Grain != lmad.Coarse {
			t.ref = append(t.ref, i)
		} else if lead = slices.IndexFunc(t.ops, func(o *CommOp) bool { return o.Grain == lmad.Coarse && o.Sym == op.Sym }); lead == i {
			leads = append(leads, i)
		}
		t.lead = append(t.lead, lead)
	}
	t.ref = append(t.ref, leads...)
	rankClasses(t.ops, t.lead, 0, par.Procs, par.Schedule, func(r, c int, _ []int64) {
		if c == len(t.classes) {
			t.classes = append(t.classes, rankClass{rep: r, head: -1})
		}
		cl := &t.classes[c]
		t.ranks[r] = classRank{int32(c), int32(cl.size), int32(cl.head)}
		cl.head, cl.size = r, cl.size+1
	})
	return t
}

// rankClasses sorts ranks first..procs-1 into classes, numbered in
// order of first member, that agree on each op's count (rankPart) and,
// where lead[i] >= 0, on its base relative to op lead[i] <= i's: they
// restrict each op alike and displace the ops of one lead alike. visit
// sees each rank with its class and every op's base.
func rankClasses(ops []*CommOp, lead []int, first, procs int, sched f77.Schedule, visit func(rank, class int, bases []int64)) {
	bases := make([]int64, len(ops))
	index := map[string]int{}
	var key []byte
	for r := first; r < procs; r++ {
		key = key[:0]
		for i, op := range ops {
			var n int64
			_, n, bases[i] = rankPart(op, r, procs, sched)
			key = binary.AppendVarint(key, n)
			if l := lead[i]; l >= 0 {
				key = binary.AppendVarint(key, bases[i]-bases[l])
			}
		}
		c, ok := index[string(key)]
		if !ok {
			c = len(index)
			index[string(key)] = c
		}
		visit(r, c, bases)
	}
}

// class returns rank's class with its plans built: the representative's
// planRank, and for every member a view whose entries are displaced by
// the member's base of the entry's op minus the representative's.
func (t *classTable) class(par *ParInfo, dir Direction, rank int) *rankClass {
	cl := &t.classes[t.ranks[rank].class]
	cl.once.Do(func() {
		plans, n := planRank(par, dir, cl.rep), len(t.ref)
		cl.views = make([]SymPlan, cl.size*n)
		view := func(r int) []SymPlan { return cl.views[int(t.ranks[r].slot)*n:][:n] }
		for r := cl.head; r >= 0; r = int(t.ranks[r].next) {
			copy(view(r), plans)
		}
		// Each member's Outside is marked here, once, not on every run.
		for e, i := range t.ref {
			lo, hi := reach(plans[e].Plan)
			size, err := layoutElems(plans[e].Sym)
			if err != nil {
				size = math.MaxInt64 // no constant layout: not checked here
			}
			_, _, b0 := rankPart(t.ops[i], cl.rep, par.Procs, par.Schedule)
			for r := cl.head; r >= 0; r = int(t.ranks[r].next) {
				_, _, b := rankPart(t.ops[i], r, par.Procs, par.Schedule)
				pl := &view(r)[e]
				pl.Shift = b - b0
				pl.Outside = lo < hi && (lo+pl.Shift < 0 || hi+pl.Shift > size)
			}
		}
	})
	return cl
}

// RankPlans returns everything rank transfers in one direction of a
// parallel region (see planRank for the order). The list is a function
// of the finished translation alone — the postpass generates the
// scatter/collect code once (§5.4–5.6) — so it is computed on first
// request and then shared by every run and rank goroutine of the
// program: callers must not modify it, and must not ask while the
// translation is still being built. Each entry's Plan is shared with
// the rank's class; the rank moves it displaced by the entry's Shift.
func RankPlans(par *ParInfo, dir Direction, rank int) []SymPlan {
	t := classes(par, dir)
	k, n := int(t.ranks[rank].slot)*len(t.ref), len(t.ref)
	return t.class(par, dir, rank).views[k : k+n : k+n]
}

// RankCovers returns the cover (lmad.Cover) of each entry's Plan in
// RankPlans(par, dir, rank), index for index: the elements a Full-mode
// run copies once each, displaced by the entry's Shift, after charging
// every transfer. It is memoised per class beside the plans and, like
// them, shared and immutable; only a run that moves data asks for it,
// so Timing runs and the compiler never build it.
func RankCovers(par *ParInfo, dir Direction, rank int) [][]lmad.Span {
	t := classes(par, dir)
	cl := t.class(par, dir, rank)
	cl.coverOnce.Do(func() {
		cl.covers = make([][]lmad.Span, len(t.ref))
		for i, pl := range cl.views[:len(t.ref)] {
			cl.covers[i] = lmad.Cover(pl.Plan)
		}
	})
	return cl.covers
}

// eachRankRun walks everything rank transfers in one direction of a
// parallel region in the deterministic order the runtime issues it:
// each non-coarse op's plan, handed to run unenumerated, then the
// coarse-grain plans merged per array across ops into the "one big
// approximate region" of Figure 9(d), handed to merged. Merging can
// grow a transfer past its pre-merge eager/rendezvous stamp, so merged
// plans are re-stamped; the threshold is machine-global (every op of a
// coalesced compile carries the same value, unstamped ops carry 0), so
// the max over ops recovers it. It is the only walk over a region's
// ops: planRank materialises it for the interpreter's one-sided, pull
// and two-sided paths (both halves of a SEND/RECEIVE pair, through
// RankPlans) and the static estimator prices it, so they price and
// move exactly the same transfers.
func eachRankRun(par *ParInfo, dir Direction, rank int,
	run func(op *CommOp, runs lmad.Runs), merged func(sym *f77.Symbol, plan []lmad.Transfer)) {
	ops := par.ops(dir)
	var coarse []SymPlan // per array, in first-seen order
	var rndvThreshold int64
	for _, op := range ops {
		if op.RndvThreshold > rndvThreshold {
			rndvThreshold = op.RndvThreshold
		}
		runs := rankRuns(op, op.Grain, rank, par.Procs, par.Schedule)
		if op.Grain != lmad.Coarse {
			run(op, runs)
			continue
		}
		i := 0
		for i < len(coarse) && coarse[i].Sym != op.Sym {
			i++
		}
		if i == len(coarse) {
			coarse = append(coarse, SymPlan{Sym: op.Sym})
		}
		coarse[i].Plan = append(coarse[i].Plan, materialise(op, runs)...)
	}
	for _, c := range coarse {
		merged(c.Sym, lmad.MarkRendezvous(lmad.MergeContiguous(c.Plan), rndvThreshold))
	}
}

// planRank materialises eachRankRun into the rank's transfer list.
func planRank(par *ParInfo, dir Direction, rank int) []SymPlan {
	out := make([]SymPlan, 0, len(par.ops(dir)))
	eachRankRun(par, dir, rank,
		func(op *CommOp, runs lmad.Runs) {
			out = append(out, SymPlan{Sym: op.Sym, Plan: materialise(op, runs)})
		},
		func(sym *f77.Symbol, plan []lmad.Transfer) {
			out = append(out, SymPlan{Sym: sym, Plan: plan})
		})
	return out
}

// ops returns the region's ops of one direction.
func (par *ParInfo) ops(dir Direction) []*CommOp {
	return [...][]*CommOp{Scatter: par.Scatters, Collect: par.Collects}[dir]
}
