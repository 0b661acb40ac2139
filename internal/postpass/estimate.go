package postpass

import (
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// EstimateCommCost predicts the total data scattering/collecting time
// of the SPMD program on the given machine without executing it — the
// §5.6 "precise analysis of data access pattern" turned into a static
// cost estimate. It prices with the machine's commcost kernel the
// transfers the interpreter issues, read from the same rank classes
// (classTable), in the same order, from the same origin nodes: the
// master performs push scatters, each slave its own pull scatters and
// collects, rank-local moves are skipped.
//
// Without registration state a price depends on a transfer's shape and
// hop distance alone: each class's representative is walked once
// (eachRankRun; a Fine/Middle op is N transfers of one shape,
// Definition 2, costing N × Price(shape)), and each (class, hops) pair
// is priced once and added for every rank of the class at that
// distance. On a protocol-switched fabric the price also depends on
// whether the origin's registration cache holds the offset, so each
// origin node gets a simulated cache, shared across regions like the
// runtime's, and every rank's shifted transfers are priced in issue
// order. The estimate thus equals the measured TotalXferTime of a
// one-sided run whose region structure is execution-independent;
// two-sided runs also pay pack/unpack copies, which it does not model.
func EstimateCommCost(p *Program, params cluster.Params) sim.Time {
	k := params.CommCost()
	caches := k.NewRegCaches(p.Opts.NumProcs)
	geo := params.Geometry()
	type shape struct {
		a commcost.Access
		n sim.Time
	}
	type classHops struct{ class, hops int }
	priced := map[classHops]sim.Time{}
	var total sim.Time
	for _, r := range p.Regions {
		if r.Par == nil {
			continue
		}
		for _, dir := range []Direction{Scatter, Collect} {
			t := classes(r.Par, dir)
			shapes := make([][]shape, len(t.classes)) // per class: what its representative moves
			clear(priced)
			for rank := 1; rank < p.Opts.NumProcs; rank++ {
				hops := geo.Hops(0, rank)
				if caches != nil {
					origin := rank
					if dir == Scatter && !p.Opts.PullScatter {
						origin = 0
					}
					for _, pl := range RankPlans(r.Par, dir, rank) {
						for _, tr := range pl.Plan {
							tr.Offset += pl.Shift
							c, _ := k.Price(commcost.FromTransfer(pl.Sym.Name, tr), hops, caches[origin])
							total += c
						}
					}
					continue
				}
				key := classHops{int(t.ranks[rank].class), hops}
				c, ok := priced[key]
				if !ok {
					if shapes[key.class] == nil {
						shapes[key.class] = []shape{} // walked, even if it moves nothing
						add := func(sym *f77.Symbol, tr lmad.Transfer, n int64) {
							shapes[key.class] = append(shapes[key.class], shape{commcost.FromTransfer(sym.Name, tr), sim.Time(n)})
						}
						eachRankRun(r.Par, dir, t.classes[key.class].rep,
							func(op *CommOp, runs lmad.Runs) {
								if runs.N > 0 {
									add(op.Sym, stamp(op, []lmad.Transfer{runs.Shape()})[0], runs.N)
								}
							},
							func(sym *f77.Symbol, plan []lmad.Transfer) {
								for _, tr := range plan {
									add(sym, tr, 1)
								}
							})
					}
					for _, sh := range shapes[key.class] {
						price, _ := k.Price(sh.a, hops, nil)
						c += sh.n * price
					}
					priced[key] = c
				}
				total += c
			}
		}
	}
	return total
}
