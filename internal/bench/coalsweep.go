package bench

import (
	"fmt"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
)

// CoalPoint is one cell of the pack-vs-PIO crossover sweep: a strided
// one-sided transfer of Elems elements at stride Stride, timed over
// the per-element PIO path and over the coalesced pack path on the
// same machine, with payloads verified element-for-element at the
// target after each run.
type CoalPoint struct {
	Elems, Stride int
	// PIO and Packed are the measured virtual times of one strided PUT
	// over each path.
	PIO, Packed sim.Time
	// PIOBW and PackedBW are the corresponding payload bandwidths in
	// MB/s of useful (non-padding) bytes.
	PIOBW, PackedBW float64
	// ModelPacks reports the cost model's decision for this shape: the
	// element count reaches the machine's commcost pack threshold — the
	// coalescer packs exactly when this is true.
	ModelPacks bool
}

// Winner names the cheaper path of a point.
func (pt CoalPoint) Winner() string {
	if pt.Packed < pt.PIO {
		return "packed"
	}
	return "pio"
}

// CoalSweep measures the pack-vs-PIO crossover of env.Fabric directly
// at the MPI layer: for every element count × stride cell it builds a
// fresh two-rank cluster, PUTs the same strided region once over the
// programmed-I/O path and once over the coalesced pack path, verifies
// at the target that both paths delivered byte-identical payloads, and
// checks the measured times against the cost model's decision (the
// packed path must be the cheaper one whenever the model says pack).
func CoalSweep(elemCounts, strides []int, env Env) ([]CoalPoint, error) {
	params := cluster.DefaultParams()
	if env.Fabric != "" {
		var err error
		params, err = cluster.ParamsForFabric(env.Fabric)
		if err != nil {
			return nil, err
		}
	}
	packFrom := params.CommCost().PackThreshold()
	var out []CoalPoint
	for _, elems := range elemCounts {
		for _, stride := range strides {
			if stride < 2 {
				return nil, fmt.Errorf("bench: coalsweep stride %d must be >= 2 (stride 1 is already contiguous DMA)", stride)
			}
			pt, err := coalCell(params, packFrom, elems, stride)
			if err != nil {
				return nil, err
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// coalCell times one (elems, stride) cell; packFrom is the machine's
// pack threshold in elements (0 = never).
func coalCell(params cluster.Params, packFrom int64, elems, stride int) (CoalPoint, error) {
	pio := mpi.StridedDesc(0, int64(elems), int64(stride))
	packed := pio
	packed.Packed = true
	cell := fmt.Sprintf("coalsweep %dx%d", elems, stride)
	t, err := twoRankPuts(params, cell, []putStep{{"pio", pio, 1}, {"packed", packed, 1001}})
	if err != nil {
		return CoalPoint{}, err
	}
	pt := CoalPoint{
		Elems:      elems,
		Stride:     stride,
		PIO:        t[0],
		Packed:     t[1],
		ModelPacks: packFrom > 0 && int64(elems) >= packFrom,
	}
	payload := float64(elems * mpi.WordBytes)
	secs := func(t sim.Time) float64 { return float64(t) / (1000 * float64(sim.Millisecond)) }
	if pt.PIO > 0 {
		pt.PIOBW = payload / secs(pt.PIO) / 1e6
	}
	if pt.Packed > 0 {
		pt.PackedBW = payload / secs(pt.Packed) / 1e6
	}
	if pt.ModelPacks && pt.Packed > pt.PIO {
		return CoalPoint{}, fmt.Errorf("bench: %s: model packs but packed path measured slower (%v > %v)", cell, pt.Packed, pt.PIO)
	}
	return pt, nil
}

func runCoalSweep(env Env) (Report, error) {
	elems := Sized(env.Quick, []int{8, 32, 64, 256}, []int{4, 8, 16, 32, 48, 64, 128, 256, 1024, 4096})
	points, err := CoalSweep(elems, []int{2, 4, 16}, env)
	if err != nil {
		return Report{}, err
	}
	t := Table{
		Title:     fmt.Sprintf("Pack-and-coalesce crossover on %s (payload-verified strided PUT, 2 ranks)", fabricLabel(env.Fabric)),
		Header:    "elems\tstride\tpio\t\tpacked\t\tpioMB/s\tpackMB/s\twinner\tmodel",
		RowFormat: "%d\t%d\t%-10v\t%-10v\t%.1f\t%.1f\t%s\t%s\n",
	}
	for _, p := range points {
		model := "pio"
		if p.ModelPacks {
			model = "packed"
		}
		t.Add(p.Elems, p.Stride, p.PIO, p.Packed, p.PIOBW, p.PackedBW, p.Winner(), model)
	}
	return Report{Tables: []Table{t}}, nil
}
