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
	"sort"
	"strings"
	"sync"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
)

// RdmaFabrics is the five-fabric comparison set of the sweep.
var RdmaFabrics = []string{"vbus", "vbus3d", "ethernet", "ideal", "rdma"}

// RdmaFabricCell is one benchmark priced on one fabric (coarse grain,
// the paper's best) for the Table-2-style comparison.
type RdmaFabricCell struct {
	Fabric    string
	Caps      string
	Benchmark string
	CommTime  sim.Time
	Elapsed   sim.Time
}

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

// RdmaGateRow is the drift-gated summary of the protocol model: the
// crossover is a pure function of the card's calibration, so any
// change to it shows up as an exact mismatch against the checked-in
// baseline (serve.BenchGate).
type RdmaGateRow struct {
	// CrossoverBytes is the cold-cache eager/rendezvous crossover at
	// one hop; WarmCrossoverBytes assumes every registration cached.
	CrossoverBytes     int64 `json:"crossover_bytes"`
	WarmCrossoverBytes int64 `json:"warm_crossover_bytes"`
	// CrossoverElems is the measured element count at which the
	// runtime's automatic choice switched — always
	// ceil(CrossoverBytes/8), asserted by the sweep.
	CrossoverElems int64 `json:"crossover_elems"`
	// RegCacheEntries is the per-node registration-cache capacity.
	RegCacheEntries int `json:"reg_cache_entries"`
}

// RdmaResult is everything RdmaSweep measured.
type RdmaResult struct {
	Fabrics    []RdmaFabricCell
	Points     []RdmaProtoPoint
	Gate       RdmaGateRow
	CacheStats interconnect.RegCacheStats
}

// RdmaGate recomputes the protocol model's crossover row from the
// current card calibration alone (no measurement) — the figure
// serve.BenchGate diffs against the checked-in baseline, so any
// recalibration of the rdma card shows up as an exact drift failure.
func RdmaGate() (RdmaGateRow, error) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		return RdmaGateRow{}, err
	}
	pm := params.CommCost().Protocol()
	if pm == nil {
		return RdmaGateRow{}, fmt.Errorf("bench: rdma card does not implement interconnect.ProtocolModel")
	}
	hops := params.Hops(0, 1)
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

// RdmaSweep runs the full protocol sweep; quick shrinks the benchmark
// problem sizes (the protocol table is cheap either way).
func RdmaSweep(quick bool) (*RdmaResult, error) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		return nil, err
	}
	pm := params.CommCost().Protocol()
	if pm == nil {
		return nil, fmt.Errorf("bench: rdma card does not implement interconnect.ProtocolModel")
	}
	hops := params.Hops(0, 1)
	gate, err := RdmaGate()
	if err != nil {
		return nil, err
	}
	coldB := gate.CrossoverBytes
	res := &RdmaResult{Gate: gate}

	// Protocol table: payload sizes bracketing both crossovers.
	coldE := int((coldB + mpi.WordBytes - 1) / mpi.WordBytes)
	seen := map[int]bool{}
	for _, e := range []int{1, coldE / 8, coldE / 4, coldE / 2, coldE - 1, coldE, 2 * coldE, 8 * coldE} {
		if e < 1 || seen[e] {
			continue
		}
		seen[e] = true
		pt, err := rdmaProtoCell(params, pm, hops, e)
		if err != nil {
			return nil, err
		}
		res.Points = append(res.Points, pt)
	}

	// The runtime's automatic switch must land exactly on the model's
	// crossover, quantized to whole 8-byte elements.
	measured, err := rdmaMeasureCrossover(params, pm, hops, coldE)
	if err != nil {
		return nil, err
	}
	if measured != int64(coldE) {
		return nil, fmt.Errorf("bench: rdmasweep: auto protocol switched at %d elems, model crossover is %d bytes = %d elems",
			measured, coldB, coldE)
	}
	res.Gate.CrossoverElems = measured

	// Registration-cache pressure: overflow the LRU and observe the
	// eviction turn a would-be hit back into a cold registration.
	stats, err := rdmaCachePressure(params, pm, hops)
	if err != nil {
		return nil, err
	}
	res.CacheStats = stats

	// Five-fabric Table-2-style comparison at the paper's best grain.
	mmN, swimN, cfftM := 128, 128, 9
	if quick {
		mmN, swimN, cfftM = 64, 64, 9
	}
	cells, err := rdmaFabricTable(Table2Benchmarks(mmN, swimN, cfftM), 4)
	if err != nil {
		return nil, err
	}
	res.Fabrics = cells
	return res, nil
}

// rdmaProtoCell times one payload size over all three charged paths on
// a fresh two-rank cluster, verifying payloads at the target and each
// measured time against the model exactly.
func rdmaProtoCell(params cluster.Params, pm interconnect.ProtocolModel, hops, elems int) (RdmaProtoPoint, error) {
	cl, err := cluster.New(2, params)
	if err != nil {
		return RdmaProtoPoint{}, err
	}
	w := mpi.NewWorld(cl)
	bytes := elems * mpi.WordBytes
	pt := RdmaProtoPoint{
		Elems:     elems,
		Bytes:     bytes,
		ModelRndv: pm.RendezvousTime(bytes, hops, false) < pm.EagerTime(bytes, hops),
	}
	region := make([]float64, elems)
	var verr error
	verify := func(label string, base float64) {
		for i := 0; i < elems && verr == nil; i++ {
			if got, want := region[i], base+float64(i); got != want {
				verr = fmt.Errorf("bench: rdmasweep %d elems %s payload: element %d = %v, want %v",
					elems, label, i, got, want)
			}
		}
	}
	put := func(p *mpi.Proc, win *mpi.Win, proto lmad.Protocol, base float64) sim.Time {
		data := make([]float64, elems)
		for i := range data {
			data[i] = base + float64(i)
		}
		d := mpi.ContigDesc(0, int64(elems))
		d.Region = "rdma-bench"
		d.Proto = proto
		t0 := cl.Clock(0)
		mpi.Must(p.Put(win, 1, d, data))
		return cl.Clock(0) - t0
	}
	var wg sync.WaitGroup
	wg.Add(2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			defer wg.Done()
			p := w.Rank(rank)
			var local []float64
			if rank == 1 {
				local = region
			}
			win := p.WinCreate("rdma", local)
			// Eager first, over the same region key the rendezvous
			// transfers use: if the eager path warmed the cache, the
			// "cold" rendezvous below would come back warm and fail its
			// exactness check.
			if rank == 0 {
				pt.Eager = put(p, win, lmad.ProtoEager, 1)
			}
			p.Fence(win)
			if rank == 1 {
				verify("eager", 1)
			}
			p.Fence(win)
			if rank == 0 {
				pt.RndvCold = put(p, win, lmad.ProtoRndv, 1001)
			}
			p.Fence(win)
			if rank == 1 {
				verify("rndv-cold", 1001)
			}
			p.Fence(win)
			if rank == 0 {
				pt.RndvWarm = put(p, win, lmad.ProtoRndv, 2001)
			}
			p.Fence(win)
			if rank == 1 {
				verify("rndv-warm", 2001)
			}
			p.Fence(win)
		}(rank)
	}
	wg.Wait()
	if verr != nil {
		return RdmaProtoPoint{}, verr
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
		mpi.Must(p.Charge(1, mpi.ContigDesc(0, int64(elems))))
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
		mpi.Must(p.Charge(1, d))
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

// rdmaFabricTable prices the benchmark set at coarse grain on every
// fabric of the comparison.
func rdmaFabricTable(benchmarks map[string]string, procs int) ([]RdmaFabricCell, error) {
	var cells []RdmaFabricCell
	for _, fabric := range RdmaFabrics {
		params, err := cluster.ParamsForFabric(fabric)
		if err != nil {
			return nil, err
		}
		caps := params.Fabric.Caps().String()
		names := make([]string, 0, len(benchmarks))
		for name := range benchmarks {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			c, err := core.Compile(benchmarks[name], core.Options{NumProcs: procs, Grain: lmad.Coarse, Fabric: fabric})
			if err != nil {
				return nil, fmt.Errorf("bench: rdmasweep %s on %s: %w", name, fabric, err)
			}
			r, err := c.RunParallel(core.Timing)
			if err != nil {
				return nil, fmt.Errorf("bench: rdmasweep %s on %s: %w", name, fabric, err)
			}
			cells = append(cells, RdmaFabricCell{
				Fabric:    fabric,
				Caps:      caps,
				Benchmark: name,
				CommTime:  r.Report.TotalXferTime(),
				Elapsed:   r.Elapsed,
			})
		}
	}
	return cells, nil
}

// FormatRdmaSweep renders the sweep: the five-fabric comparison, the
// protocol table and the cache/crossover summary.
func FormatRdmaSweep(res *RdmaResult) string {
	var sb strings.Builder
	sb.WriteString("Communication time (s) by fabric, coarse grain (Table-2-style)\n")
	order := []string{}
	byBench := map[string]map[string]RdmaFabricCell{}
	for _, c := range res.Fabrics {
		if byBench[c.Benchmark] == nil {
			byBench[c.Benchmark] = map[string]RdmaFabricCell{}
			order = append(order, c.Benchmark)
		}
		byBench[c.Benchmark][c.Fabric] = c
	}
	sb.WriteString("Benchmark")
	for _, f := range RdmaFabrics {
		fmt.Fprintf(&sb, "\t%s", f)
	}
	sb.WriteByte('\n')
	for _, name := range order {
		fmt.Fprintf(&sb, "%s", name)
		for _, f := range RdmaFabrics {
			fmt.Fprintf(&sb, "\t%.5f", byBench[name][f].CommTime.Seconds())
		}
		sb.WriteByte('\n')
	}
	sb.WriteByte('\n')
	sb.WriteString("Eager/rendezvous protocol switch on rdma (payload-verified contiguous PUT, 2 ranks)\n")
	sb.WriteString("elems\tbytes\teager\t\trndv(cold)\trndv(warm)\twinner\tmodel\n")
	for _, p := range res.Points {
		model := "eager"
		if p.ModelRndv {
			model = "rndv"
		}
		fmt.Fprintf(&sb, "%d\t%d\t%-10v\t%-10v\t%-10v\t%s\t%s\n",
			p.Elems, p.Bytes, p.Eager, p.RndvCold, p.RndvWarm, p.Winner(), model)
	}
	fmt.Fprintf(&sb, "\ncrossover: cold %d bytes (measured switch at %d elems), warm %d bytes\n",
		res.Gate.CrossoverBytes, res.Gate.CrossoverElems, res.Gate.WarmCrossoverBytes)
	fmt.Fprintf(&sb, "registration cache: %d/%d entries, %d hits, %d misses, %d evictions under pressure\n",
		res.CacheStats.Size, res.CacheStats.Cap, res.CacheStats.Hits, res.CacheStats.Misses, res.CacheStats.Evictions)
	return sb.String()
}
