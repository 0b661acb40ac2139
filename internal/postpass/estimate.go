package postpass

import (
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// EstimateCommCost predicts the total data scattering/collecting time
// of the SPMD program on the given machine without executing it — the
// §5.6 "precise analysis of data access pattern" turned into a static
// cost estimate. It prices with the machine's commcost kernel (any
// registered backend, not just the V-Bus card) the same per-rank walk
// the interpreter's transfer lists are materialised from (eachRankRun —
// unmemoised here, because AutoGrain prices three candidate
// translations at compile time and keeps one), in the same order, from
// the same origin nodes: the master performs push scatters, each slave
// its own pull scatters and collects, rank-local moves are skipped.
//
// On a fabric without registration state a transfer's price is a
// function of its shape and hop distance alone, so a Fine/Middle op —
// N transfers of one shape (Definition 2) — costs N × Price(shape):
// the plan is priced as the descriptor states it, never enumerated.
// On a protocol-switched fabric the price also depends on whether the
// origin's registration cache holds the transfer's offset, so there
// each origin node gets a simulated cache, shared across regions like
// the runtime's per-node state, and every transfer is priced in issue
// order. Kernel, plans and cache states being the runtime's own, the
// estimate equals the measured TotalXferTime of a one-sided run for any
// program whose region structure is execution-independent. Two-sided
// runs pay message pack/unpack copies and send anonymous buffers, which
// this estimate does not model; it stays an approximation there.
func EstimateCommCost(p *Program, params cluster.Params) sim.Time {
	k := params.CommCost()
	procs := p.Opts.NumProcs
	caches := k.NewRegCaches(procs)
	geo := params.Geometry()
	var total sim.Time
	price := func(par *ParInfo, dir Direction, rank, origin int) {
		hops := geo.Hops(0, rank)
		fold := func(sym *f77.Symbol, plan []lmad.Transfer, cache *interconnect.RegCache) {
			for _, tr := range plan {
				t, _ := k.Price(commcost.FromTransfer(sym.Name, tr), hops, cache)
				total += t
			}
		}
		if caches != nil {
			for _, pl := range planRank(par, dir, rank) {
				fold(pl.Sym, pl.Plan, caches[origin])
			}
			return
		}
		eachRankRun(par, dir, rank,
			func(op *CommOp, runs lmad.Runs) {
				if runs.N == 0 {
					return
				}
				shape := stamp(op, []lmad.Transfer{runs.Shape()})[0]
				t, _ := k.Price(commcost.FromTransfer(op.Sym.Name, shape), hops, nil)
				total += sim.Time(runs.N) * t
			},
			func(sym *f77.Symbol, plan []lmad.Transfer) { fold(sym, plan, nil) })
	}
	for _, r := range p.Regions {
		if r.Par == nil {
			continue
		}
		for dst := 1; dst < procs; dst++ {
			origin := 0
			if p.Opts.PullScatter {
				origin = dst
			}
			price(r.Par, Scatter, dst, origin)
		}
		for rank := 1; rank < procs; rank++ {
			price(r.Par, Collect, rank, rank)
		}
	}
	return total
}
