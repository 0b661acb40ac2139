// Package nic models the network interface cards of the cluster: the
// V-Bus card described in §2 of the paper and a Fast Ethernet card used
// as the paper's reference point ("a V-Bus network card offers four
// times higher bandwidth and much lower latency than a fast Ethernet
// card").
//
// The cards expose *cost functions* — how long an operation occupies
// the sender and how long until the payload lands remotely — rather
// than performing transfers themselves: the MPI runtime moves the real
// bytes through Go memory and charges per-process virtual clocks with
// these costs.
//
// The V-Bus card distinguishes the two §2.2 data paths:
//
//   - contiguous transfers use DMA: "data from the user buffer can be
//     copied into the device driver buffer without interrupting the
//     processor" — a fixed setup plus wire time;
//   - strided transfers use programmed I/O: "data in the user buffer is
//     copied into the device driver buffer one-element by one-element"
//     — an extra per-element CPU charge, which is why the compiler's
//     middle/coarse granularities exist.
package nic

import (
	"fmt"

	"vbuscluster/internal/fabric"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/mesh"
	"vbuscluster/internal/sim"
)

// Card is the cost model of one NIC type. It is an alias of the
// machine-layer Interconnect seam (internal/interconnect), kept so the
// card models read naturally as NICs; both cards here register as
// interconnect backends ("vbus", "ethernet") in init.
type Card = interconnect.Interconnect

func init() {
	interconnect.Register("vbus", func() (interconnect.Interconnect, error) {
		return NewVBus(DefaultVBusConfig())
	})
	interconnect.Register("ethernet", func() (interconnect.Interconnect, error) {
		return NewEthernet(DefaultEthernetConfig())
	})
}

// VBusConfig parameterizes the V-Bus card model.
type VBusConfig struct {
	// Link physics. Defaults (DefaultVBusConfig) reproduce the paper's
	// published ratios.
	LinkMode fabric.PipelineMode
	Lines    fabric.LineSet
	Margin   sim.Time
	Sampler  fabric.SkewSampler

	RouterLatency  sim.Time // per-hop wormhole routing latency
	BusArbitration sim.Time // virtual-bus construction cost

	// DMASetup is the per-message driver cost of the contiguous path.
	// It is small because the MPI-2 daemon and the device driver share
	// a message queue and data moves user-buffer -> driver-buffer
	// directly (§2.2), all in user mode (§7).
	DMASetup sim.Time
	// PIOPerElement is the programmed-I/O cost per element on the
	// strided path.
	PIOPerElement sim.Time
}

// DefaultVBusConfig is the calibration used throughout the repository:
// 32-bit FPGA links at 300ns nominal propagation with ±60ns per-line
// skew, SKWP with a 64ns sampling grid, 8ns margin. The resulting
// numbers land on the paper's published ratios simultaneously:
//
//   - SKWP launch interval ≈ 72ns → ~55 MB/s sustained, ≈ 4x Fast
//     Ethernet's 12.5 MB/s ("four times higher bandwidth");
//   - conventional pipelining ≈ 370ns interval → SKWP is ~5x faster
//     ("up to four times higher than conventional pipelining");
//   - small-message latency ≈ 30µs vs Ethernet's ~116µs ("about four
//     times lower latency").
func DefaultVBusConfig() VBusConfig {
	return VBusConfig{
		LinkMode:       fabric.SKWP,
		Lines:          fabric.NewLineSet(32, 300*sim.Nanosecond, 60*sim.Nanosecond, 1),
		Margin:         8 * sim.Nanosecond,
		Sampler:        fabric.SkewSampler{Resolution: 64 * sim.Nanosecond},
		RouterLatency:  60 * sim.Nanosecond,
		BusArbitration: 200 * sim.Nanosecond,
		DMASetup:       28 * sim.Microsecond,
		PIOPerElement:  900 * sim.Nanosecond,
	}
}

// VBus is the V-Bus network card cost model.
type VBus struct {
	cfg  VBusConfig
	link *fabric.Link
}

// NewVBus validates cfg and builds the card model.
func NewVBus(cfg VBusConfig) (*VBus, error) {
	if cfg.DMASetup < 0 || cfg.PIOPerElement < 0 || cfg.RouterLatency < 0 || cfg.BusArbitration < 0 {
		return nil, fmt.Errorf("nic: negative cost in VBusConfig")
	}
	l, err := fabric.NewLink(fabric.LinkConfig{
		Mode:    cfg.LinkMode,
		Lines:   cfg.Lines,
		Margin:  cfg.Margin,
		Sampler: cfg.Sampler,
	})
	if err != nil {
		return nil, fmt.Errorf("nic: %w", err)
	}
	return &VBus{cfg: cfg, link: l}, nil
}

// Name implements Card.
func (v *VBus) Name() string { return "vbus" }

// SendSetup implements Card.
func (v *VBus) SendSetup() sim.Time { return v.cfg.DMASetup }

// wireTime is the wormhole pipeline time for a payload over hops mesh
// channels.
func (v *VBus) wireTime(bytes, hops int) sim.Time {
	return v.link.WormholeTime(bytes, hops, v.cfg.RouterLatency)
}

// ContigTime implements Card: pure DMA + wire, no per-element work.
func (v *VBus) ContigTime(bytes, hops int) sim.Time {
	return v.wireTime(bytes, hops)
}

// StridedTime implements Card: every element costs a PIO store on top
// of the wire time of the gathered payload.
func (v *VBus) StridedTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	return sim.Time(elems)*v.cfg.PIOPerElement + v.wireTime(elems*elemSize, hops)
}

// BroadcastTime implements interconnect.Bus with the hardware virtual
// bus: one arbitration, one stream, every node listens. The mesh
// geometry is assumed square-ish: diameter ≈ 2(ceil(sqrt(n))-1).
func (v *VBus) BroadcastTime(bytes, nodes int) sim.Time {
	if nodes <= 1 {
		return 0
	}
	side := 1
	for side*side < nodes {
		side++
	}
	diameter := 2 * (side - 1)
	bpf := v.link.Width() / 8
	flits := (bytes + bpf - 1) / bpf
	if flits == 0 {
		flits = 1
	}
	setup := v.cfg.BusArbitration + sim.Time(diameter)*v.link.PropagationDelay()
	stream := sim.Time(flits-1)*v.link.LaunchInterval() + v.link.PropagationDelay()
	return setup + stream
}

// Caps implements Card: the §2.2 V-Bus data paths — DMA for
// contiguous transfers, programmed I/O per element for strided ones,
// the hardware virtual-bus broadcast, and wormhole routing whose cost
// grows with mesh distance.
func (v *VBus) Caps() interconnect.Caps {
	return interconnect.Caps{DMAContig: true, PIOStrided: true, HardwareBroadcast: true, HopSensitive: true}
}

// MeshConfig adapts the card's physics into a mesh.Config for the
// flit-level simulator, so microbenchmarks and the cost model share one
// parameterization.
func (v *VBus) MeshConfig(width, height int) mesh.Config {
	return mesh.Config{
		Width:          width,
		Height:         height,
		LinkMode:       v.cfg.LinkMode,
		Lines:          v.cfg.Lines,
		Margin:         v.cfg.Margin,
		Sampler:        v.cfg.Sampler,
		RouterLatency:  v.cfg.RouterLatency,
		BusArbitration: v.cfg.BusArbitration,
	}
}

// EthernetConfig parameterizes the Fast Ethernet reference card.
type EthernetConfig struct {
	BytesPerSecond float64  // wire bandwidth
	Latency        sim.Time // one-way small-message latency incl. kernel path
	SetupCost      sim.Time // per-message kernel/network-stack overhead
	PerElement     sim.Time // per-element cost of strided sends
}

// DefaultEthernetConfig models 100 Mb/s Fast Ethernet with a
// kernel-mediated stack: 12.5 MB/s wire rate and ~115 µs end-to-end
// small-message latency (driver + kernel + wire) — 2001-era numbers
// calibrated so the V-Bus card shows the paper's "about four times
// lower latency than the Fast Ethernet card".
func DefaultEthernetConfig() EthernetConfig {
	return EthernetConfig{
		BytesPerSecond: 12.5e6,
		Latency:        65 * sim.Microsecond,
		SetupCost:      50 * sim.Microsecond,
		PerElement:     1200 * sim.Nanosecond,
	}
}

// Ethernet is the Fast Ethernet reference card.
type Ethernet struct {
	cfg EthernetConfig
}

// NewEthernet validates cfg and builds the card model.
func NewEthernet(cfg EthernetConfig) (*Ethernet, error) {
	if cfg.BytesPerSecond <= 0 {
		return nil, fmt.Errorf("nic: ethernet bandwidth must be positive")
	}
	if cfg.Latency < 0 || cfg.SetupCost < 0 || cfg.PerElement < 0 {
		return nil, fmt.Errorf("nic: negative cost in EthernetConfig")
	}
	return &Ethernet{cfg: cfg}, nil
}

// Name implements Card.
func (e *Ethernet) Name() string { return "fast-ethernet" }

// SendSetup implements Card.
func (e *Ethernet) SendSetup() sim.Time { return e.cfg.SetupCost }

func (e *Ethernet) wireTime(bytes int) sim.Time {
	return e.cfg.Latency + sim.FromSeconds(float64(bytes)/e.cfg.BytesPerSecond)
}

// ContigTime implements Card. Ethernet is a shared medium: hop count is
// irrelevant.
func (e *Ethernet) ContigTime(bytes, hops int) sim.Time {
	return e.wireTime(bytes)
}

// StridedTime implements Card.
func (e *Ethernet) StridedTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	return sim.Time(elems)*e.cfg.PerElement + e.wireTime(elems*elemSize)
}

// Caps implements Card: a kernel-mediated shared medium — no DMA
// fast path, per-element packing on strided sends, software-tree
// broadcasts, and no sensitivity to mesh placement.
func (e *Ethernet) Caps() interconnect.Caps {
	return interconnect.Caps{DMAContig: false, PIOStrided: true, HardwareBroadcast: false, HopSensitive: false}
}

// Compile-time interface checks.
var (
	_ Card             = (*VBus)(nil)
	_ interconnect.Bus = (*VBus)(nil)
	_ Card             = (*Ethernet)(nil)
)
