package bench

// The rdma protocol sweep: the eager/rendezvous counterpart of
// CoalSweep. It measures, at the MPI layer with payload verification,
// that the rdma card's protocol switch behaves exactly as the
// interconnect.ProtocolModel prices it — forced-eager and
// forced-rendezvous transfers cost the model's figures to the
// picosecond, a repeated rendezvous transfer rides the warm
// registration cache, the runtime's automatic choice flips protocols
// at exactly ceil(ProtocolCrossoverBytes/8) elements, and the LRU
// cache evicts under pressure. It also re-prices the Table 2 trio on
// all five fabrics so the rdma card slots into the paper's
// comparative argument.

import (
	"fmt"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
)

// RdmaFabrics is the five-fabric comparison set of the sweep.
var RdmaFabrics = []string{"vbus", "vbus3d", "ethernet", "ideal", "rdma"}

// RdmaProtoPoint is one payload size of the protocol table: the same
// contiguous PUT timed over the forced-eager path, the forced-
// rendezvous path with a cold registration cache, and again warm.
type RdmaProtoPoint struct {
	Elems int
	Bytes int
	// Eager, RndvCold and RndvWarm are the measured virtual times of
	// one PUT over each path; each must equal the model's figure
	// exactly (asserted during the sweep).
	Eager, RndvCold, RndvWarm sim.Time
	// ModelRndv reports the model's cold-cache decision at this size.
	ModelRndv bool
}

// Winner names the measured cold-cache winner of a point.
func (p RdmaProtoPoint) Winner() string {
	if p.RndvCold < p.Eager {
		return "rndv"
	}
	return "eager"
}

// RdmaGateRow is the exact summary of the protocol model: the crossover
// is a pure function of the card's calibration, so a tier-1 test pins
// it (TestRdmaGateExact) and any recalibration shows up as a mismatch.
type RdmaGateRow struct {
	// CrossoverBytes is the cold-cache eager/rendezvous crossover at
	// one hop; WarmCrossoverBytes assumes every registration cached.
	CrossoverBytes     int64
	WarmCrossoverBytes int64
	// CrossoverElems is the measured element count at which the
	// runtime's automatic choice switched — always
	// ceil(CrossoverBytes/8), asserted by the sweep.
	CrossoverElems int64
	// RegCacheEntries is the per-node registration-cache capacity.
	RegCacheEntries int
}

// rdmaModel returns the rdma machine, its protocol model and the hop
// count between the sweep's two ranks.
func rdmaModel() (cluster.Params, interconnect.ProtocolModel, int, error) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		return params, nil, 0, err
	}
	pm := params.CommCost().Protocol()
	if pm == nil {
		return params, nil, 0, fmt.Errorf("bench: rdma card does not implement interconnect.ProtocolModel")
	}
	return params, pm, params.Geometry().Hops(0, 1), nil
}

// RdmaGate computes the protocol model's crossover row from the
// current card calibration alone (no measurement).
func RdmaGate() (RdmaGateRow, error) {
	_, pm, hops, err := rdmaModel()
	if err != nil {
		return RdmaGateRow{}, err
	}
	coldB := pm.ProtocolCrossoverBytes(hops, 0)
	warmB := pm.ProtocolCrossoverBytes(hops, 1)
	if coldB <= 0 || warmB <= 0 {
		return RdmaGateRow{}, fmt.Errorf("bench: rdma model has no eager/rendezvous crossover (cold %d, warm %d)", coldB, warmB)
	}
	return RdmaGateRow{
		CrossoverBytes:     coldB,
		WarmCrossoverBytes: warmB,
		CrossoverElems:     (coldB + mpi.WordBytes - 1) / mpi.WordBytes,
		RegCacheEntries:    pm.RegCacheCapacity(),
	}, nil
}

// runRdmaSweep runs the full protocol sweep — env.Quick shrinks the
// benchmark problem sizes (the protocol table is cheap either way) —
// and renders the five-fabric comparison, the protocol table and the
// cache/crossover summary.
func runRdmaSweep(env Env) (Report, error) {
	params, pm, hops, err := rdmaModel()
	if err != nil {
		return Report{}, err
	}
	gate, err := RdmaGate()
	if err != nil {
		return Report{}, err
	}

	// Protocol table: payload sizes bracketing both crossovers.
	proto := Table{
		Title:     "Eager/rendezvous protocol switch on rdma (payload-verified contiguous PUT, 2 ranks)",
		Header:    "elems\tbytes\teager\t\trndv(cold)\trndv(warm)\twinner\tmodel",
		RowFormat: "%d\t%d\t%-10v\t%-10v\t%-10v\t%s\t%s\n",
	}
	coldE := int(gate.CrossoverElems)
	seen := map[int]bool{}
	for _, e := range []int{1, coldE / 8, coldE / 4, coldE / 2, coldE - 1, coldE, 2 * coldE, 8 * coldE} {
		if e < 1 || seen[e] {
			continue
		}
		seen[e] = true
		p, err := rdmaProtoCell(params, pm, hops, e)
		if err != nil {
			return Report{}, err
		}
		model := "eager"
		if p.ModelRndv {
			model = "rndv"
		}
		proto.Add(p.Elems, p.Bytes, p.Eager, p.RndvCold, p.RndvWarm, p.Winner(), model)
	}

	// The runtime's automatic switch must land exactly on the model's
	// crossover, quantized to whole 8-byte elements.
	measured, err := rdmaMeasureCrossover(params, pm, hops, coldE)
	if err != nil {
		return Report{}, err
	}
	if measured != gate.CrossoverElems {
		return Report{}, fmt.Errorf("bench: rdmasweep: auto protocol switched at %d elems, model crossover is %d bytes = %d elems",
			measured, gate.CrossoverBytes, coldE)
	}

	// Registration-cache pressure: overflow the LRU and observe the
	// eviction turn a would-be hit back into a cold registration.
	stats, err := rdmaCachePressure(params, pm, hops)
	if err != nil {
		return Report{}, err
	}
	summary := Table{
		Title: fmt.Sprintf("crossover: cold %d bytes (measured switch at %d elems), warm %d bytes",
			gate.CrossoverBytes, measured, gate.WarmCrossoverBytes),
		RowFormat: "registration cache: %d/%d entries, %d hits, %d misses, %d evictions under pressure\n",
	}
	summary.Add(stats.Size, stats.Cap, stats.Hits, stats.Misses, stats.Evictions)

	// Five-fabric Table-2-style comparison: the benchmark set on four
	// ranks at coarse grain, the paper's best.
	var grid []cell
	for _, fabric := range RdmaFabrics {
		for _, b := range Table2Benchmarks(Sized(env.Quick, 64, 128), Sized(env.Quick, 64, 128), 9) {
			r, err := compileRun(fmt.Sprintf("rdmasweep %s on %s", b.Name, fabric), b.Source,
				core.Options{NumProcs: 4, Grain: lmad.Coarse, Fabric: fabric}, (*core.Compiled).RunParallel, core.Timing)
			if err != nil {
				return Report{}, err
			}
			grid = append(grid, cell{b.Name, fabric, r.Report.TotalXferTime().Seconds()})
		}
	}
	return Report{Tables: []Table{
		pivot("Communication time (s) by fabric, coarse grain (Table-2-style)", "Benchmark", "%.5f", grid),
		proto, summary,
	}}, nil
}

// rdmaProtoCell times one payload size over all three charged paths,
// verifying payloads at the target and each measured time against the
// model exactly.
func rdmaProtoCell(params cluster.Params, pm interconnect.ProtocolModel, hops, elems int) (RdmaProtoPoint, error) {
	bytes := elems * mpi.WordBytes
	eager := mpi.ContigDesc(0, int64(elems))
	eager.Region = "rdma-bench"
	eager.Proto = lmad.ProtoEager
	rndv := eager
	rndv.Proto = lmad.ProtoRndv
	// Eager first, over the same region key the rendezvous transfers
	// use: if the eager path warmed the cache, the "cold" rendezvous
	// would come back warm and fail its exactness check.
	t, err := twoRankPuts(params, fmt.Sprintf("rdmasweep %d elems", elems),
		[]putStep{{"eager", eager, 1}, {"rndv-cold", rndv, 1001}, {"rndv-warm", rndv, 2001}})
	if err != nil {
		return RdmaProtoPoint{}, err
	}
	pt := RdmaProtoPoint{
		Elems:     elems,
		Bytes:     bytes,
		Eager:     t[0],
		RndvCold:  t[1],
		RndvWarm:  t[2],
		ModelRndv: pm.RendezvousTime(bytes, hops, false) < pm.EagerTime(bytes, hops),
	}
	for _, c := range []struct {
		label    string
		got, way sim.Time
	}{
		{"eager", pt.Eager, pm.EagerTime(bytes, hops)},
		{"rndv-cold", pt.RndvCold, pm.RendezvousTime(bytes, hops, false)},
		{"rndv-warm", pt.RndvWarm, pm.RendezvousTime(bytes, hops, true)},
	} {
		if c.got != c.way {
			return RdmaProtoPoint{}, fmt.Errorf("bench: rdmasweep %d elems: measured %s time %v, model says %v",
				elems, c.label, c.got, c.way)
		}
	}
	if pt.RndvWarm >= pt.RndvCold {
		return RdmaProtoPoint{}, fmt.Errorf("bench: rdmasweep %d elems: warm rendezvous %v not cheaper than cold %v",
			elems, pt.RndvWarm, pt.RndvCold)
	}
	return pt, nil
}

// rdmaMeasureCrossover binary-searches the smallest element count at
// which the runtime's automatic (unstamped) protocol choice takes the
// rendezvous path, probing each size with a charge-only PUT on a fresh
// cluster so every probe sees a cold registration cache.
func rdmaMeasureCrossover(params cluster.Params, pm interconnect.ProtocolModel, hops, hint int) (int64, error) {
	choseRndv := func(elems int) (bool, error) {
		cl, err := cluster.New(2, params)
		if err != nil {
			return false, err
		}
		p := mpi.NewWorld(cl).Rank(0)
		t0 := cl.Clock(0)
		mpi.Must(p.Charge(1, mpi.ContigDesc(0, int64(elems)), false))
		cost := cl.Clock(0) - t0
		bytes := elems * mpi.WordBytes
		switch cost {
		case pm.EagerTime(bytes, hops):
			return false, nil
		case pm.RendezvousTime(bytes, hops, false):
			return true, nil
		}
		return false, fmt.Errorf("bench: rdmasweep probe at %d elems cost %v, matching neither eager %v nor cold rendezvous %v",
			elems, cost, pm.EagerTime(bytes, hops), pm.RendezvousTime(bytes, hops, false))
	}
	hi := hint
	if hi < 1 {
		hi = 1
	}
	for {
		rndv, err := choseRndv(hi)
		if err != nil {
			return 0, err
		}
		if rndv {
			break
		}
		hi *= 2
		if hi > 1<<24 {
			return 0, fmt.Errorf("bench: rdmasweep: automatic choice never took rendezvous")
		}
	}
	lo := 0 // eager (or empty) below
	for lo+1 < hi {
		mid := (lo + hi) / 2
		rndv, err := choseRndv(mid)
		if err != nil {
			return 0, err
		}
		if rndv {
			hi = mid
		} else {
			lo = mid
		}
	}
	return int64(hi), nil
}

// rdmaCachePressure overflows the registration cache with distinct
// regions and checks the LRU behaved: the oldest region re-registers
// (cold cost) after eviction while a recent one still hits.
func rdmaCachePressure(params cluster.Params, pm interconnect.ProtocolModel, hops int) (interconnect.RegCacheStats, error) {
	cl, err := cluster.New(2, params)
	if err != nil {
		return interconnect.RegCacheStats{}, err
	}
	p := mpi.NewWorld(cl).Rank(0)
	const elems = 64
	bytes := elems * mpi.WordBytes
	cold := pm.RendezvousTime(bytes, hops, false)
	warm := pm.RendezvousTime(bytes, hops, true)
	charge := func(offset int64) sim.Time {
		d := mpi.ContigDesc(offset, elems)
		d.Region = "pressure"
		d.Proto = lmad.ProtoRndv
		t0 := cl.Clock(0)
		mpi.Must(p.Charge(1, d, false))
		return cl.Clock(0) - t0
	}
	cap := pm.RegCacheCapacity()
	// Fill the cache, then one more distinct region evicts region 0.
	for i := 0; i <= cap; i++ {
		if got := charge(int64(i) * elems); got != cold {
			return interconnect.RegCacheStats{}, fmt.Errorf("bench: rdmasweep cache fill %d: cost %v, want cold %v", i, got, cold)
		}
	}
	if got := charge(int64(cap) * elems); got != warm {
		return interconnect.RegCacheStats{}, fmt.Errorf("bench: rdmasweep: recent region missed the cache (cost %v, want warm %v)", got, warm)
	}
	if got := charge(0); got != cold {
		return interconnect.RegCacheStats{}, fmt.Errorf("bench: rdmasweep: evicted region still cached (cost %v, want cold %v)", got, cold)
	}
	st := cl.RegCache(0).Stats()
	if st.Evictions < 2 || st.Size != st.Cap {
		return interconnect.RegCacheStats{}, fmt.Errorf("bench: rdmasweep: cache stats %+v after overflow, want >= 2 evictions at full size", st)
	}
	return st, nil
}
