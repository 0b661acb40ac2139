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
// compiler's eager/rendezvous protocol choice.
func RankPlan(op *CommOp, ctx analysis.LoopCtx, rank, procs int, sched f77.Schedule) []lmad.Transfer {
	return lmad.MarkRendezvous(
		lmad.MarkPacked(rankPlan(op, ctx, rank, procs, sched), op.PackThreshold),
		op.RndvThreshold)
}

func rankPlan(op *CommOp, ctx analysis.LoopCtx, rank, procs int, sched f77.Schedule) []lmad.Transfer {
	l := op.Acc.L
	pd := op.ParallelDim
	if pd < 0 {
		return lmad.Plan(l, -1, op.Grain)
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
			return nil
		}
		newPD := pd
		if part.Rank() < l.Rank() {
			newPD = -1 // the dimension collapsed to a single trip
		}
		return lmad.Plan(part, newPD, op.Grain)
	default:
		start, count := BlockPart(trips, rank, procs)
		if count == 0 {
			return nil
		}
		if op.Reversed {
			// Loop trip k maps to lattice position trips-1-k, so the
			// block [start, start+count) maps to
			// [trips-start-count, trips-start).
			start = trips - start - count
		}
		part := l.RestrictDim(pd, start, count)
		newPD := pd
		if part.Rank() < l.Rank() {
			newPD = -1
		}
		return lmad.Plan(part, newPD, op.Grain)
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

// planRank enumerates everything rank transfers in one direction of a
// parallel region in the deterministic order the runtime issues it:
// each non-coarse op's plan as planned, then the coarse-grain plans
// merged per array across ops into the "one big approximate region" of
// Figure 9(d). Merging can grow a transfer past its pre-merge
// eager/rendezvous stamp, so merged plans are re-stamped; the
// threshold is machine-global (every op of a coalesced compile carries
// the same value, unstamped ops carry 0), so the max over ops recovers
// it. It is the only enumerator: the interpreter's one-sided, pull and
// two-sided paths (both halves of a SEND/RECEIVE pair) read it through
// RankPlans and the static estimator calls it directly, so they price
// and move exactly the same transfers.
func planRank(par *ParInfo, dir Direction, rank int) []SymPlan {
	ops := par.Scatters
	if dir == Collect {
		ops = par.Collects
	}
	out := make([]SymPlan, 0, len(ops))
	coarse := map[*f77.Symbol][]lmad.Transfer{}
	var coarseOrder []*f77.Symbol
	var rndvThreshold int64
	for _, op := range ops {
		if op.RndvThreshold > rndvThreshold {
			rndvThreshold = op.RndvThreshold
		}
		plan := RankPlan(op, par.Ctx, rank, par.Procs, par.Schedule)
		if op.Grain == lmad.Coarse {
			if _, seen := coarse[op.Sym]; !seen {
				coarseOrder = append(coarseOrder, op.Sym)
			}
			coarse[op.Sym] = append(coarse[op.Sym], plan...)
			continue
		}
		out = append(out, SymPlan{op.Sym, plan})
	}
	for _, sym := range coarseOrder {
		out = append(out, SymPlan{sym, lmad.MarkRendezvous(lmad.MergeContiguous(coarse[sym]), rndvThreshold)})
	}
	return out
}

// PlanBytes sums the wire elements of a plan.
func PlanBytes(plan []lmad.Transfer) int64 {
	var n int64
	for _, t := range plan {
		n += t.Elems
	}
	return n
}
