package core

import (
	"os"
	"path/filepath"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/sim"
)

// foldEstimate is EstimateCommCost as it was before runs were priced
// whole: Price folded over every transfer of every rank's materialised
// plan (postpass.RankPlans, what the run path issues), in issue order,
// with a simulated registration cache per origin node. Kept as the
// reference.
func foldEstimate(p *postpass.Program, params cluster.Params) sim.Time {
	k := params.CommCost()
	procs := p.Opts.NumProcs
	caches := k.NewRegCaches(procs)
	geo := params.Geometry()
	var total sim.Time
	price := func(par *postpass.ParInfo, dir postpass.Direction, rank, origin int) {
		var cache *interconnect.RegCache
		if caches != nil {
			cache = caches[origin]
		}
		for _, pl := range postpass.RankPlans(par, dir, rank) {
			for _, tr := range pl.Plan {
				t, _ := k.Price(commcost.FromTransfer(pl.Sym.Name, tr), geo.Hops(0, rank), cache)
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
			price(r.Par, postpass.Scatter, dst, origin)
		}
		for rank := 1; rank < procs; rank++ {
			price(r.Par, postpass.Collect, rank, rank)
		}
	}
	return total
}

// The estimator prices a Fine/Middle op as count × Price(shape) on
// fabrics without registration state and transfer by transfer on rdma;
// either way it must equal the fold over the materialised plans to the
// picosecond.
func TestEstimateMatchesFold(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	nonzero := 0
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, fabric := range []string{"vbus", "ethernet", "ideal", "vbus3d", "rdma"} {
			for _, procs := range []int{2, 4, 7, 64} {
				for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
					for _, variant := range []Options{{}, {Coalesce: true}, {PullScatter: true}} {
						opts := variant
						opts.NumProcs, opts.Grain, opts.Fabric = procs, grain, fabric
						c, err := Compile(string(src), opts)
						if err != nil {
							t.Fatalf("%s: %v", file, err)
						}
						machine := machineParams(c.opts.Params, procs)
						got, want := postpass.EstimateCommCost(c.SPMD, machine), foldEstimate(c.SPMD, machine)
						if got != want {
							t.Errorf("%s %s P=%d %v coalesce=%v pull=%v: estimate %v, fold over RankPlans %v",
								filepath.Base(file), fabric, procs, grain, opts.Coalesce, opts.PullScatter, got, want)
						}
						if want > 0 {
							nonzero++
						}
					}
				}
			}
		}
	}
	if nonzero < 500 {
		t.Fatalf("only %d configurations priced any transfer", nonzero)
	}
}
