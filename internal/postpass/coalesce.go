package postpass

import (
	"fmt"

	"vbuscluster/internal/cluster"
)

// The coalesce stage rewrites strided scatter/collect transfers into
// pack → contiguous DMA burst → unpack when the target machine's
// commcost kernel says the burst beats per-element PIO. The decision is
// a single per-machine crossover element count (Kernel.PackThreshold),
// so one threshold stamped on each comm op is exact.
// RankPlan applies the threshold when a rank's plan is materialized,
// marking qualifying strided transfers Packed; the MPI layer routes
// Packed descriptors over the pack transport class and charges the
// pack/unpack copies plus one contiguous burst.

// coalesce stamps the machine's pack crossover on every remaining
// scatter/collect op. Runs after grain-opt (so it sees the effective
// grains — a race-demoted fine collect is exactly the strided traffic
// that profits most) and before the AVPG (which only removes ops, never
// reshapes them). On a protocol-switched fabric the stage also stamps
// the eager/rendezvous crossover in elements (Kernel.RndvThreshold), so
// rank plans carry the compiler's protocol decision per contiguous
// transfer.
func (t *translator) coalesce() string {
	if !t.p.Opts.Coalesce {
		return "off"
	}
	params := cluster.DefaultParams()
	if t.p.Opts.Machine != nil {
		params = *t.p.Opts.Machine
	}
	k := params.CommCost()
	threshold, rndvElems := k.PackThreshold(), k.RndvThreshold()
	if threshold == 0 && rndvElems == 0 {
		return fmt.Sprintf("packing never beats PIO on %s", params.Fabric.Name())
	}
	ops := 0
	for _, r := range t.p.Regions {
		if r.Par == nil {
			continue
		}
		for _, op := range append(append([]*CommOp{}, r.Par.Scatters...), r.Par.Collects...) {
			op.PackThreshold = threshold
			op.RndvThreshold = rndvElems
			ops++
		}
	}
	var note string
	if threshold > 0 {
		note = fmt.Sprintf("crossover %d elems on %s, %d comm ops eligible",
			threshold, params.Fabric.Name(), ops)
	} else {
		note = fmt.Sprintf("packing never beats PIO on %s, %d comm ops eligible",
			params.Fabric.Name(), ops)
	}
	if rndvElems > 0 {
		note += fmt.Sprintf("; rendezvous at %d elems", rndvElems)
	}
	return note
}
