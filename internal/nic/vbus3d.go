// vbus3d models a 3D-torus generation of the V-Bus card, in the
// spirit of APEnet-style cluster interconnects: the same FPGA link
// physics and wormhole routing as the 2D card, but six links per node
// arranged as a 3D torus and a leaner RDMA engine. Two qualitative
// differences against the 2D card drive its cost profile:
//
//   - hop distances shrink: a 1024-node machine is a 16×8×8 torus of
//     diameter 16 where the 2D 32×32 mesh has diameter 62, so the
//     per-hop wormhole head latency matters far less at scale;
//   - there is no shared virtual bus to arbitrate (the card does not
//     implement interconnect.Bus), so broadcasts decay to the software
//     tree of point-to-point messages (like Ethernet's, but over the
//     fast links).
//
// The card implements interconnect.GeometryHinter so the machine layer
// builds the 3D geometry its hop model assumes.
package nic

import (
	"fmt"
	"math/bits"

	"vbuscluster/internal/fabric"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

func init() {
	interconnect.Register("vbus3d", func() (interconnect.Interconnect, error) {
		return NewVBus3D(DefaultVBus3DConfig())
	})
}

// VBus3DConfig parameterizes the 3D-torus V-Bus card model.
type VBus3DConfig struct {
	// Link physics, shared with the 2D card (the FPGA links are the
	// same; only the topology and the DMA engine changed).
	LinkMode fabric.PipelineMode
	Lines    fabric.LineSet
	Margin   sim.Time
	Sampler  fabric.SkewSampler

	RouterLatency sim.Time // per-hop wormhole routing latency

	// DMASetup is the per-message driver cost of the contiguous path.
	// Smaller than the 2D card's: the RDMA engine posts descriptors
	// directly, with no daemon message-queue handshake.
	DMASetup sim.Time
	// PIOPerElement is the programmed-I/O cost per element on the
	// strided path (unchanged: the element path is CPU-bound).
	PIOPerElement sim.Time
}

// DefaultVBus3DConfig reuses the 2D card's link calibration (32-bit
// SKWP links, 300ns ± 60ns propagation, 64ns sampling grid, 8ns
// margin, 60ns router) with a 10µs RDMA setup.
func DefaultVBus3DConfig() VBus3DConfig {
	base := DefaultVBusConfig()
	return VBus3DConfig{
		LinkMode:      base.LinkMode,
		Lines:         base.Lines,
		Margin:        base.Margin,
		Sampler:       base.Sampler,
		RouterLatency: base.RouterLatency,
		DMASetup:      10 * sim.Microsecond,
		PIOPerElement: base.PIOPerElement,
	}
}

// VBus3D is the 3D-torus V-Bus card cost model.
type VBus3D struct {
	cfg  VBus3DConfig
	link *fabric.Link
}

// NewVBus3D validates cfg and builds the card model.
func NewVBus3D(cfg VBus3DConfig) (*VBus3D, error) {
	if cfg.DMASetup < 0 || cfg.PIOPerElement < 0 || cfg.RouterLatency < 0 {
		return nil, fmt.Errorf("nic: negative cost in VBus3DConfig")
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
	return &VBus3D{cfg: cfg, link: l}, nil
}

// Name implements Card.
func (v *VBus3D) Name() string { return "vbus3d" }

// SendSetup implements Card.
func (v *VBus3D) SendSetup() sim.Time { return v.cfg.DMASetup }

// wireTime is the wormhole pipeline time for a payload over hops torus
// channels: the 2D card's formula on the same links.
func (v *VBus3D) wireTime(bytes, hops int) sim.Time {
	return v.link.WormholeTime(bytes, hops, v.cfg.RouterLatency)
}

// ContigTime implements Card: pure RDMA + wire, no per-element work.
func (v *VBus3D) ContigTime(bytes, hops int) sim.Time {
	return v.wireTime(bytes, hops)
}

// StridedTime implements Card: every element costs a PIO store on top
// of the wire time of the gathered payload.
func (v *VBus3D) StridedTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	return sim.Time(elems)*v.cfg.PIOPerElement + v.wireTime(elems*elemSize, hops)
}

// Caps implements Card: the same DMA-vs-PIO data paths as the 2D
// card and hop-sensitive wormhole routing, but no hardware broadcast.
func (v *VBus3D) Caps() interconnect.Caps {
	return interconnect.Caps{DMAContig: true, PIOStrided: true, HardwareBroadcast: false, HopSensitive: true}
}

// PreferredGeometry implements interconnect.GeometryHinter: the most
// cube-like 3D torus covering n nodes. Powers of two split the
// exponent across the three dimensions (1024 → 16×8×8, 64 → 4×4×4);
// other counts take the smallest a ≥ b ≥ c with a·b·c ≥ n starting
// from the cube root. Wraparound links are always on — they are what
// the six-link node design buys.
func (v *VBus3D) PreferredGeometry(n int) ([]int, bool) {
	if n <= 1 {
		return []int{1, 1, 1}, true
	}
	if n&(n-1) == 0 {
		e := bits.Len(uint(n)) - 1
		base, rem := e/3, e%3
		dims := []int{base, base, base}
		for i := 0; i < rem; i++ {
			dims[i]++
		}
		return []int{1 << dims[0], 1 << dims[1], 1 << dims[2]}, true
	}
	a := 1
	for a*a*a < n {
		a++
	}
	b := 1
	for a*b*b < n {
		b++
	}
	c := 1
	for a*b*c < n {
		c++
	}
	return []int{a, b, c}, true
}

// Compile-time interface checks.
var (
	_ Card                        = (*VBus3D)(nil)
	_ interconnect.GeometryHinter = (*VBus3D)(nil)
)
