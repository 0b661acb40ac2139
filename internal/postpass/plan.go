package postpass

import (
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

// RankTrips enumerates the 0-based trip indices rank executes under the
// given schedule.
func RankTrips(trips int64, rank, procs int, sched f77.Schedule) []int64 {
	var out []int64
	if sched == f77.SchedCyclic {
		for k := int64(rank); k < trips; k += int64(procs) {
			out = append(out, k)
		}
		return out
	}
	lo, n := BlockPart(trips, rank, procs)
	for k := lo; k < lo+n; k++ {
		out = append(out, k)
	}
	return out
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
	pd := op.ParallelDim
	if pd < 0 {
		return lmad.PlanRuns(l, g)
	}
	trips := l.Dims[pd].Trips()
	switch sched {
	case f77.SchedCyclic:
		phase := int64(rank) % int64(procs)
		if op.Reversed {
			// Loop trip k maps to lattice position trips-1-k, and k
			// ranges over a full residue class mod procs, so the
			// positions form the cyclic class with mirrored phase:
			// (trips-1-rank) mod procs.
			phase = (trips - 1 - int64(rank)) % int64(procs)
			if phase < 0 {
				phase += int64(procs)
			}
		}
		part, ok := l.CycleDim(pd, phase, int64(procs))
		if !ok {
			return lmad.Runs{}
		}
		return lmad.PlanRuns(part, g)
	default:
		start, count := BlockPart(trips, rank, procs)
		if count == 0 {
			return lmad.Runs{}
		}
		if op.Reversed {
			// Loop trip k maps to lattice position trips-1-k, so the
			// block [start, start+count) maps to
			// [trips-start-count, trips-start).
			start = trips - start - count
		}
		return lmad.PlanRuns(l.RestrictDim(pd, start, count), g)
	}
}

// SymPlan is one entry of a rank's transfer list: the transfers that
// move one array's regions.
type SymPlan struct {
	Sym  *f77.Symbol
	Plan []lmad.Transfer
}

// Direction selects one of a parallel region's two transfer lists.
type Direction int

const (
	// Scatter is the region-entry direction, master → slaves.
	Scatter Direction = iota
	// Collect is the region-exit direction, slaves → master.
	Collect
)

// planMemo holds a region's per-rank transfer lists, indexed
// [dir*Procs + rank]. The table is made by the first RankPlans call on
// the region — a run's, never the compiler's — so compiling pays
// nothing for it; each entry is computed once by whoever asks first
// and is immutable afterwards.
type planMemo struct {
	once  sync.Once
	table []rankPlans
}

type rankPlans struct {
	once  sync.Once
	plans []SymPlan
}

// RankPlans returns everything rank transfers in one direction of a
// parallel region (see planRank for the order). The list is a function
// of the finished translation alone — the postpass generates the
// scatter/collect code once (§5.4–5.6) — so it is computed on first
// request and then shared by every run and rank goroutine of the
// program: callers must not modify it, and must not ask while the
// translation is still being built.
func RankPlans(par *ParInfo, dir Direction, rank int) []SymPlan {
	m := &par.plans
	m.once.Do(func() { m.table = make([]rankPlans, 2*par.Procs) })
	e := &m.table[int(dir)*par.Procs+rank]
	e.once.Do(func() { e.plans = planRank(par, dir, rank) })
	return e.plans
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
	ops := par.Scatters
	if dir == Collect {
		ops = par.Collects
	}
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
	n := len(par.Scatters)
	if dir == Collect {
		n = len(par.Collects)
	}
	out := make([]SymPlan, 0, n)
	eachRankRun(par, dir, rank,
		func(op *CommOp, runs lmad.Runs) {
			out = append(out, SymPlan{op.Sym, materialise(op, runs)})
		},
		func(sym *f77.Symbol, plan []lmad.Transfer) {
			out = append(out, SymPlan{sym, plan})
		})
	return out
}
