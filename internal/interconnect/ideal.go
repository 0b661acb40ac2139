package interconnect

import "vbuscluster/internal/sim"

// Ideal is a zero-latency, infinite-bandwidth fabric: every transfer,
// broadcast and setup costs nothing. It is not a model of any card —
// it is the experimental control that isolates compute scaling from
// communication: a run whose speedup is still sublinear on the Ideal
// backend is limited by partitioning overhead or serial sections, not
// by the network.
type Ideal struct{}

// NewIdeal builds the ideal backend.
func NewIdeal() *Ideal { return &Ideal{} }

// Name implements Interconnect.
func (*Ideal) Name() string { return "ideal" }

// SendSetup implements Interconnect.
func (*Ideal) SendSetup() sim.Time { return 0 }

// ContigTime implements Interconnect.
func (*Ideal) ContigTime(bytes, hops int) sim.Time { return 0 }

// StridedTime implements Interconnect.
func (*Ideal) StridedTime(elems, elemSize, hops int) sim.Time { return 0 }

// BroadcastTime implements Bus: the ideal fabric has a free hardware
// broadcast, so a broadcast on it still takes the bus path (and, under
// fault injection, still retries bus acquisition).
func (*Ideal) BroadcastTime(bytes, nodes int) sim.Time { return 0 }

// Caps implements Interconnect: transfers are free regardless of
// shape, so the fabric behaves like perfect DMA with no PIO penalty,
// hardware broadcast, and no placement sensitivity.
func (*Ideal) Caps() Caps {
	return Caps{DMAContig: true, PIOStrided: false, HardwareBroadcast: true, HopSensitive: false}
}

var (
	_ Interconnect = (*Ideal)(nil)
	_ Bus          = (*Ideal)(nil)
)

func init() {
	Register("ideal", func() (Interconnect, error) { return NewIdeal(), nil })
}
