package postpass

import (
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

// EstimateCommCost predicts the total data scattering/collecting time
// of the SPMD program on the given machine without executing it — the
// §5.6 "precise analysis of data access pattern" turned into a static
// cost estimate. It folds the machine's commcost kernel (any registered
// backend, not just the V-Bus card) over the same per-rank transfer
// lists the interpreter issues (planRank, the enumerator behind
// RankPlans — unmemoised here, because AutoGrain prices three candidate
// translations at compile time and keeps one), in the same order, from
// the same origin nodes: the master performs push scatters, each slave its
// own pull scatters and collects, rank-local moves are skipped. On a
// protocol-switched fabric each origin node gets a simulated
// registration cache, shared across regions like the runtime's per-node
// state. Kernel, plans and cache states being the runtime's own, the
// estimate equals the measured TotalXferTime of a one-sided run for any
// program whose region structure is execution-independent. Two-sided
// runs pay message pack/unpack copies and send anonymous buffers, which
// this estimate does not model; it stays an approximation there.
func EstimateCommCost(p *Program, params cluster.Params) sim.Time {
	k := params.CommCost()
	procs := p.Opts.NumProcs
	caches := k.NewRegCaches(procs)
	var total sim.Time
	price := func(par *ParInfo, dir Direction, rank, origin int) {
		var cache *interconnect.RegCache
		if caches != nil {
			cache = caches[origin]
		}
		hops := params.Hops(0, rank)
		for _, pl := range planRank(par, dir, rank) {
			for _, tr := range pl.Plan {
				t, _ := k.Price(commcost.FromTransfer(pl.Sym.Name, tr), hops, cache)
				total += t
			}
		}
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
