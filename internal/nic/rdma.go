// rdma models an RDMA-class successor to the V-Bus card, in the
// spirit of MPICH2 over InfiniBand: a switched fabric whose dominant
// design question is not DMA-vs-PIO but eager-vs-rendezvous. Every
// contiguous transfer can ride one of two priced paths:
//
//   - eager: the sender copies the payload into a pre-registered
//     bounce buffer and ships one message. No handshake, no
//     registration — but two per-byte host copies (copy-in at the
//     sender, delivery copy at the receiver, both charged to the
//     origin like the pack path charges both of its copies);
//   - rendezvous: an RTS/CTS handshake negotiates the transfer, the
//     source buffer is registered (pinned) with the NIC on demand,
//     and the payload moves zero-copy. Registration is expensive but
//     cached: repeated transfers from the same region skip it.
//
// The card implements interconnect.ProtocolModel; the crossover
// between the paths is found by a doubling probe and a binary search,
// and is exact because both cost curves share the wire term while the
// eager copy slope is validated to exceed the rendezvous registration
// slope.
package nic

import (
	"fmt"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

func init() {
	interconnect.Register("rdma", func() (interconnect.Interconnect, error) {
		return NewRDMA(DefaultRDMAConfig())
	})
}

// protoCrossoverCap bounds the eager/rendezvous crossover search: a
// configuration where rendezvous has not won by a 1 GiB payload never
// switches protocols.
const protoCrossoverCap = 1 << 30

// RDMAConfig parameterizes the rdma card model.
type RDMAConfig struct {
	// WirePerByte is the per-byte serialization time on the switched
	// links (the inverse link bandwidth).
	WirePerByte sim.Time
	// SwitchLatency is the per-hop switch forward latency; inject and
	// eject each cost one more (hops+2, the wormhole head convention
	// the other cards use).
	SwitchLatency sim.Time
	// PostOverhead is the per-message descriptor post on the sender —
	// the card's SendSetup.
	PostOverhead sim.Time
	// CopyPerByte is the host memory-copy rate the eager path pays,
	// once to stage into the bounce buffer and once to deliver at the
	// receiver (both charged to the origin).
	CopyPerByte sim.Time
	// CtrlBytes is the size of one RTS/CTS control message.
	CtrlBytes int
	// RegBase is the fixed cost of one memory-registration syscall.
	RegBase sim.Time
	// RegPerByte is the per-byte page-pinning cost of registration.
	// Must be strictly below 2*CopyPerByte, or the eager and
	// rendezvous cost curves never cross and the crossover search
	// would not be monotone.
	RegPerByte sim.Time
	// SGPerElement is the per-element descriptor cost of the
	// scatter/gather DMA used for strided transfers (cheaper than CPU
	// programmed I/O, still linear in the element count).
	SGPerElement sim.Time
	// RegCacheEntries is the per-node registration-cache capacity.
	RegCacheEntries int
}

// DefaultRDMAConfig calibrates the card against the cluster's 2001-era
// parts: 400 MB/s switched links (2.5 ns/byte), 500 ns per switch hop,
// a 3 µs descriptor post, the host's 5 ns/byte copy rate
// (cluster.DefaultCPUParams().MemCopyPerByte), 64-byte RTS/CTS
// messages, a 25 µs + 0.25 ns/byte registration syscall and a 128-entry
// registration cache. Cold-cache crossover lands near 3.5 KB, warm
// near 0.9 KB — the shape of the MPICH2-over-InfiniBand numbers.
func DefaultRDMAConfig() RDMAConfig {
	return RDMAConfig{
		WirePerByte:     2500 * sim.Picosecond,
		SwitchLatency:   500 * sim.Nanosecond,
		PostOverhead:    3 * sim.Microsecond,
		CopyPerByte:     5 * sim.Nanosecond,
		CtrlBytes:       64,
		RegBase:         25 * sim.Microsecond,
		RegPerByte:      250 * sim.Picosecond,
		SGPerElement:    150 * sim.Nanosecond,
		RegCacheEntries: 128,
	}
}

// RDMA is the protocol-switched RDMA card cost model.
type RDMA struct {
	cfg RDMAConfig
}

// NewRDMA validates cfg and builds the card model.
func NewRDMA(cfg RDMAConfig) (*RDMA, error) {
	if cfg.WirePerByte < 0 || cfg.SwitchLatency < 0 || cfg.PostOverhead < 0 ||
		cfg.CopyPerByte < 0 || cfg.RegBase < 0 || cfg.RegPerByte < 0 || cfg.SGPerElement < 0 {
		return nil, fmt.Errorf("nic: negative cost in RDMAConfig")
	}
	if cfg.CtrlBytes < 0 {
		return nil, fmt.Errorf("nic: negative RDMAConfig.CtrlBytes")
	}
	if cfg.RegCacheEntries < 1 {
		return nil, fmt.Errorf("nic: RDMAConfig.RegCacheEntries %d must be >= 1", cfg.RegCacheEntries)
	}
	if cfg.RegPerByte >= 2*cfg.CopyPerByte {
		return nil, fmt.Errorf("nic: RDMAConfig.RegPerByte %v must be below twice CopyPerByte %v (the eager and rendezvous cost curves would never cross)",
			cfg.RegPerByte, cfg.CopyPerByte)
	}
	return &RDMA{cfg: cfg}, nil
}

// Name implements Card.
func (r *RDMA) Name() string { return "rdma" }

// SendSetup implements Card.
func (r *RDMA) SendSetup() sim.Time { return r.cfg.PostOverhead }

// wireTime is the zero-copy DMA time of a payload over hops switch
// channels (+2 for inject/eject).
func (r *RDMA) wireTime(bytes, hops int) sim.Time {
	return sim.Time(hops+2)*r.cfg.SwitchLatency + sim.Time(bytes)*r.cfg.WirePerByte
}

// ContigTime implements Card: the raw zero-copy engine, used by the
// runtime's internal pre-registered buffers (broadcast trees, packed
// bursts, retransmissions). User payloads go through the protocol
// model instead.
func (r *RDMA) ContigTime(bytes, hops int) sim.Time {
	return r.wireTime(bytes, hops)
}

// StridedTime implements Card: a scatter/gather DMA pays one
// descriptor per element plus the wire time of the gathered payload.
func (r *RDMA) StridedTime(elems, elemSize, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	return sim.Time(elems)*r.cfg.SGPerElement + r.wireTime(elems*elemSize, hops)
}

// Caps implements Card: zero-copy DMA for contiguous data, hop
// sensitivity through the switches, and the protocol-switched
// contiguous path. No CPU programmed-I/O penalty (strided data rides
// the scatter/gather engine) and no hardware broadcast.
func (r *RDMA) Caps() interconnect.Caps {
	return interconnect.Caps{DMAContig: true, HopSensitive: true, EagerRendezvous: true}
}

// handshake is the RTS/CTS round trip of the rendezvous path: two
// posted control messages crossing the same hop distance.
func (r *RDMA) handshake(hops int) sim.Time {
	return 2 * (r.cfg.PostOverhead + r.wireTime(r.cfg.CtrlBytes, hops))
}

// regCost is the on-demand memory-registration (page pinning) cost of
// a bytes-sized region.
func (r *RDMA) regCost(bytes int) sim.Time {
	return r.cfg.RegBase + sim.Time(bytes)*r.cfg.RegPerByte
}

// EagerTime implements interconnect.ProtocolModel: one post, the two
// bounce-buffer copies (both charged to the origin, the pack-path
// convention), and the wire.
func (r *RDMA) EagerTime(bytes, hops int) sim.Time {
	return r.cfg.PostOverhead + 2*sim.Time(bytes)*r.cfg.CopyPerByte + r.wireTime(bytes, hops)
}

// RendezvousTime implements interconnect.ProtocolModel: one post, the
// RTS/CTS handshake, registration unless the region is already
// registered, and the zero-copy wire.
func (r *RDMA) RendezvousTime(bytes, hops int, registered bool) sim.Time {
	t := r.cfg.PostOverhead + r.handshake(hops) + r.wireTime(bytes, hops)
	if !registered {
		t += r.regCost(bytes)
	}
	return t
}

// rndvWins reports whether the rendezvous path is strictly cheaper
// than eager for a bytes-sized payload, with registration cost blended
// by the expected cache hit rate. hitRate 0 and 1 compare the exact
// integer costs the runtime charges; fractional rates blend in float.
func (r *RDMA) rndvWins(bytes, hops int, hitRate float64) bool {
	eager := r.EagerTime(bytes, hops)
	switch {
	case hitRate <= 0:
		return r.RendezvousTime(bytes, hops, false) < eager
	case hitRate >= 1:
		return r.RendezvousTime(bytes, hops, true) < eager
	}
	cold := float64(r.RendezvousTime(bytes, hops, false))
	warm := float64(r.RendezvousTime(bytes, hops, true))
	return (1-hitRate)*cold+hitRate*warm < float64(eager)
}

// ProtocolCrossoverBytes implements interconnect.ProtocolModel. Both
// cost curves share the wire term and the eager copy slope strictly
// exceeds the registration slope (validated in NewRDMA), so once
// rendezvous wins it keeps winning; a doubling probe followed by
// binary search finds the exact crossover.
func (r *RDMA) ProtocolCrossoverBytes(hops int, hitRate float64) int64 {
	hi := 1
	for !r.rndvWins(hi, hops, hitRate) {
		if hi >= protoCrossoverCap {
			return 0
		}
		hi *= 2
	}
	lo := hi / 2 // rndvWins(lo) is false (or lo == 0)
	for lo+1 < hi {
		mid := (lo + hi) / 2
		if r.rndvWins(mid, hops, hitRate) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return int64(hi)
}

// RegCacheCapacity implements interconnect.ProtocolModel.
func (r *RDMA) RegCacheCapacity() int { return r.cfg.RegCacheEntries }

// Compile-time interface checks.
var (
	_ Card                       = (*RDMA)(nil)
	_ interconnect.ProtocolModel = (*RDMA)(nil)
)
