package nic

// Pack-and-coalesce cost model for strided one-sided transfers.
//
// The paper's strided MPI_PUT/MPI_GET move element-by-element over
// programmed I/O — "much slower" than the contiguous DMA path. The
// APENet project shows the standard remedy on NIC hardware without
// strided DMA: copy the non-contiguous region into a staging buffer
// and ship a single contiguous DMA burst, unpacking on the far side.
// Whether that wins depends on the card: packing trades the
// per-element PIO charge for two per-byte memory copies plus a second
// driver transaction (the staging-buffer DMA launch), so below a
// crossover element count the PIO path is still cheaper.
//
// PackModel prices both paths against any registered interconnect.
// internal/commcost builds the one instance per machine that the
// compiler's coalesce stage, the MPI runtime's charge site and the
// static cost estimator all price through. The memcpy rate comes from
// the cluster's CPU parameterization (passed in, not imported: cluster
// sits above nic in the dependency order).

import (
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

// packCrossoverCap bounds the crossover search: a card whose packed
// path has not beaten PIO by this many elements never benefits from
// coalescing (an idealized fabric with free PIO, for example).
const packCrossoverCap = 1 << 20

// PackModel prices the strided-PIO path against the
// pack→contiguous-DMA→unpack path on one interconnect.
type PackModel struct {
	// Card is the fabric's cost model.
	Card interconnect.Interconnect
	// MemCopyPerByte is the CPU's per-byte memory-copy charge
	// (cluster.CPUParams.MemCopyPerByte), paid once to pack at the
	// origin and once to unpack at the target.
	MemCopyPerByte sim.Time
}

// PIOTime is the full origin-side cost of a strided transfer of elems
// elements over the per-element programmed-I/O path: one send setup
// plus the card's strided time.
func (m PackModel) PIOTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	return m.Card.SendSetup() + m.Card.StridedTime(elems, elemSize, hops)
}

// PackedTime is the full origin-side cost of the coalesced path: the
// strided request's send setup, the pack and unpack memory copies
// (both charged to the origin, matching the runtime's origin-charging
// model), one extra DMA setup for the staging-buffer burst, and the
// contiguous wire time of the packed payload.
func (m PackModel) PackedTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	bytes := elems * elemSize
	return 2*m.Card.SendSetup() +
		2*sim.Time(bytes)*m.MemCopyPerByte +
		m.Card.ContigTime(bytes, hops)
}

// PackWins reports whether the coalesced path is strictly cheaper than
// per-element PIO for this transfer shape.
func (m PackModel) PackWins(elems, elemSize, hops int) bool {
	if elems <= 1 {
		return false // a single element is already contiguous
	}
	return m.PackedTime(elems, elemSize, hops) < m.PIOTime(elems, elemSize, hops)
}

// CrossoverElems is the smallest element count at which packing wins
// (0 when it never does within the search cap). Both cost functions
// are monotone in elems with constant per-element slopes, so once
// packing wins it keeps winning; a doubling probe followed by binary
// search finds the exact crossover.
func (m PackModel) CrossoverElems(elemSize, hops int) int64 {
	hi := 2
	for !m.PackWins(hi, elemSize, hops) {
		if hi >= packCrossoverCap {
			return 0
		}
		hi *= 2
	}
	lo := hi / 2 // PackWins(lo) is false (or lo < 2)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if m.PackWins(mid, elemSize, hops) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return int64(hi)
}
