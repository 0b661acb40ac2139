package bench

import (
	"fmt"
	"strings"
	"sync"

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

// CoalSweep measures the pack-vs-PIO crossover of the fabric directly
// at the MPI layer: for every element count × stride cell it builds a
// fresh two-rank cluster, PUTs the same strided region once over the
// programmed-I/O path and once over the coalesced pack path, verifies
// at the target that both paths delivered byte-identical payloads, and
// checks the measured times against the cost model's decision (the
// packed path must be the cheaper one whenever the model says pack).
// fabric selects the interconnect backend ("" = default V-Bus).
func CoalSweep(elemCounts, strides []int, fabric string) ([]CoalPoint, error) {
	params := cluster.DefaultParams()
	if fabric != "" {
		var err error
		params, err = cluster.ParamsForFabric(fabric)
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

// coalCell times one (elems, stride) cell on a fresh cluster; packFrom
// is the machine's pack threshold in elements (0 = never).
func coalCell(params cluster.Params, packFrom int64, elems, stride int) (CoalPoint, error) {
	cl, err := cluster.New(2, params)
	if err != nil {
		return CoalPoint{}, err
	}
	w := mpi.NewWorld(cl)
	pt := CoalPoint{
		Elems:      elems,
		Stride:     stride,
		ModelPacks: packFrom > 0 && int64(elems) >= packFrom,
	}
	span := (elems-1)*stride + 1
	region := make([]float64, span)
	var verr error
	verify := func(label string, base float64) {
		for i := 0; i < elems && verr == nil; i++ {
			if got, want := region[i*stride], base+float64(i); got != want {
				verr = fmt.Errorf("bench: coalsweep %dx%d %s payload: element %d = %v, want %v",
					elems, stride, label, i, got, want)
			}
		}
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
			win := p.WinCreate("coal", local)
			if rank == 0 {
				data := make([]float64, elems)
				for i := range data {
					data[i] = 1 + float64(i)
				}
				t0 := cl.Clock(0)
				mpi.Must(p.Put(win, 1, mpi.StridedDesc(0, int64(elems), int64(stride)), data))
				pt.PIO = cl.Clock(0) - t0
			}
			p.Fence(win)
			if rank == 1 {
				verify("pio", 1)
			}
			p.Fence(win)
			if rank == 0 {
				data := make([]float64, elems)
				for i := range data {
					data[i] = 1001 + float64(i)
				}
				d := mpi.StridedDesc(0, int64(elems), int64(stride))
				d.Packed = true
				t0 := cl.Clock(0)
				mpi.Must(p.Put(win, 1, d, data))
				pt.Packed = cl.Clock(0) - t0
			}
			p.Fence(win)
			if rank == 1 {
				verify("packed", 1001)
			}
			p.Fence(win)
		}(rank)
	}
	wg.Wait()
	if verr != nil {
		return CoalPoint{}, verr
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
		return CoalPoint{}, fmt.Errorf(
			"bench: coalsweep %dx%d: model packs but packed path measured slower (%v > %v)",
			elems, stride, pt.Packed, pt.PIO)
	}
	return pt, nil
}

// FormatCoalSweep renders the sweep as the crossover table: per cell
// the two measured times, the payload bandwidths, the measured winner
// and the cost-model decision.
func FormatCoalSweep(points []CoalPoint, fabric string) string {
	if fabric == "" {
		fabric = "vbus"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Pack-and-coalesce crossover on %s (payload-verified strided PUT, 2 ranks)\n", fabric)
	sb.WriteString("elems\tstride\tpio\t\tpacked\t\tpioMB/s\tpackMB/s\twinner\tmodel\n")
	for _, p := range points {
		model := "pio"
		if p.ModelPacks {
			model = "packed"
		}
		fmt.Fprintf(&sb, "%d\t%d\t%-10v\t%-10v\t%.1f\t%.1f\t%s\t%s\n",
			p.Elems, p.Stride, p.PIO, p.Packed, p.PIOBW, p.PackedBW, p.Winner(), model)
	}
	return sb.String()
}
