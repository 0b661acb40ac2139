// Package commcost owns the one decision the compiler, the static
// estimator and the MPI runtime share: what a data transfer costs on
// this machine, and on which path it travels. A Kernel is built once
// per machine from the interconnect card and the CPU's memory-copy
// rate; Price answers for one access, given the hop distance and the
// origin node's registration cache. The MPI runtime calls it with the
// live per-node cache, postpass.EstimateCommCost folds it over the
// compiled plan with simulated caches, and the coalesce stage asks it
// for the two stamping thresholds — so the static estimate equals the
// measured transfer time because both are the same function of the
// same inputs, not because two copies are kept in step.
//
// It is the only package that type-asserts interconnect.ProtocolModel
// or builds a nic.PackModel; layering_test.go fails the build's tests
// on the first call site that prices a transfer around it.
package commcost

import (
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
)

// WordBytes is the wire size of one element (REAL*8).
const WordBytes = 8

// Access describes one transferred region: Elems elements starting at
// Offset, Stride apart (the innermost dimension of a split LMAD — the
// unit the compiler's §5.4 scatter/collect generation emits one
// MPI_PUT/MPI_GET for). mpi.AccessDesc is this type.
type Access struct {
	// Offset is the first element's index in the target window.
	Offset int64
	// Elems is the element count.
	Elems int64
	// Stride is the element stride; 1 means contiguous.
	Stride int64
	// Packed routes a strided access over the pack-and-coalesce path:
	// the origin packs the region into a staging buffer, one contiguous
	// DMA burst moves it, and the far side unpacks. Set by the
	// compiler's coalesce stage at or above PackThreshold elements;
	// ignored for contiguous accesses and rank-local copies (no NIC is
	// involved).
	Packed bool
	// Region names the source buffer the access reads from (the
	// compiler uses the array symbol name) — the registration-cache key
	// space on protocol-switched fabrics. Empty marks an anonymous
	// buffer, which is never cached: its rendezvous transfers always
	// pay registration. Ignored on fabrics without a protocol model.
	Region string
	// Proto is the compiler's eager/rendezvous stamp for contiguous
	// accesses on protocol-switched fabrics. ProtoAuto (the zero value)
	// picks per message against the registration cache Price is given.
	// Ignored on other fabrics, for strided accesses and for rank-local
	// copies.
	Proto lmad.Protocol
}

// FromTransfer converts one compiler-planned transfer of the named
// array (a split LMAD's innermost dimension, possibly marked packed or
// protocol-stamped by the coalesce stage) into its access descriptor.
func FromTransfer(region string, t lmad.Transfer) Access {
	return Access{Offset: t.Offset, Elems: t.Elems, Stride: t.Stride, Packed: t.Packed, Region: region, Proto: t.Proto}
}

// Contig reports whether the access is a contiguous run.
func (a Access) Contig() bool { return a.Stride <= 1 }

// Bytes is the wire payload of the access.
func (a Access) Bytes() int { return int(a.Elems) * WordBytes }

// Kernel prices transfers on one machine. It is immutable after New
// and safe for concurrent use; all mutable state (the registration
// caches) is passed in per call.
type Kernel struct {
	card interconnect.Interconnect
	pack nic.PackModel
	// proto is the card's eager/rendezvous model, nil on classic
	// fabrics.
	proto interconnect.ProtocolModel
	// contigTr and stridedTr are the capability-derived transport
	// classes of the classic contiguous and strided paths.
	contigTr, stridedTr interconnect.Transport
}

// New builds the machine's kernel from its interconnect card and the
// CPU's per-byte memory-copy charge (the pack path's two copies).
func New(card interconnect.Interconnect, memCopyPerByte sim.Time) *Kernel {
	caps := card.Caps()
	k := &Kernel{
		card:      card,
		pack:      nic.PackModel{Card: card, MemCopyPerByte: memCopyPerByte},
		contigTr:  caps.ContigTransport(),
		stridedTr: caps.StridedTransport(),
	}
	k.proto, _ = card.(interconnect.ProtocolModel)
	return k
}

// Price returns the full origin-side cost of moving a between two
// nodes hops apart, and the transport class it travels on:
//
//   - a packed strided access costs the pack/unpack copies plus one
//     contiguous DMA burst, on the pack class;
//   - any other strided access costs setup plus the card's
//     per-element path, on the card's strided class;
//   - a contiguous access on a classic fabric costs setup plus wire,
//     on the card's contiguous class;
//   - a contiguous access on a protocol-switched fabric rides the
//     eager or the rendezvous path. A stamp (a.Proto) is followed
//     as-is; an unstamped access takes whichever path is cheaper given
//     whether cache already holds the region. Only a charged
//     rendezvous transfer touches the cache (Use) — eager payloads
//     ride pre-registered bounce buffers. An anonymous region, or a
//     nil cache, always pays registration and warms nothing.
//
// Rank-local copies involve no NIC and are not priced here.
func (k *Kernel) Price(a Access, hops int, cache *interconnect.RegCache) (sim.Time, interconnect.Transport) {
	switch {
	case a.Stride > 1 && a.Packed:
		return k.pack.PackedTime(int(a.Elems), WordBytes, hops), interconnect.TransportPack
	case a.Stride > 1:
		return k.card.SendSetup() + k.card.StridedTime(int(a.Elems), WordBytes, hops), k.stridedTr
	case k.proto == nil:
		return k.card.SendSetup() + k.card.ContigTime(a.Bytes(), hops), k.contigTr
	}
	bytes := a.Bytes()
	key := interconnect.RegKey{Space: a.Region, Offset: a.Offset, Elems: a.Elems}
	cacheable := a.Region != "" && cache != nil
	proto := a.Proto
	if proto == lmad.ProtoAuto {
		proto = lmad.ProtoEager
		registered := cacheable && cache.Lookup(key)
		if k.proto.RendezvousTime(bytes, hops, registered) < k.proto.EagerTime(bytes, hops) {
			proto = lmad.ProtoRndv
		}
	}
	if proto == lmad.ProtoEager {
		return k.proto.EagerTime(bytes, hops), interconnect.TransportEager
	}
	registered := cacheable && cache.Use(key)
	return k.proto.RendezvousTime(bytes, hops, registered), interconnect.TransportRndv
}

// PackThreshold is the element count at and above which the coalesce
// stage marks a strided transfer Packed: the pack-vs-PIO crossover.
// Both curves are linear in the element count with the same wire term,
// so the crossover is independent of stride and hop distance. Zero
// means packing never beats the strided path on this card.
func (k *Kernel) PackThreshold() int64 {
	return k.pack.CrossoverElems(WordBytes, 1)
}

// RndvThreshold is the element count at and above which the coalesce
// stage stamps a contiguous transfer rendezvous (eager below it): the
// cold-cache one-hop protocol crossover in whole elements. Zero means
// the fabric has no protocol switch, or rendezvous never wins.
func (k *Kernel) RndvThreshold() int64 {
	if k.proto == nil {
		return 0
	}
	return (k.proto.ProtocolCrossoverBytes(1, 0) + WordBytes - 1) / WordBytes
}

// NewRegCaches builds the per-node registration caches of an n-node
// machine, sized by the card; nil on a classic fabric, which has no
// registration state.
func (k *Kernel) NewRegCaches(n int) []*interconnect.RegCache {
	if k.proto == nil {
		return nil
	}
	caches := make([]*interconnect.RegCache, n)
	for i := range caches {
		caches[i] = interconnect.NewRegCache(k.proto.RegCacheCapacity())
	}
	return caches
}

// Protocol returns the card's eager/rendezvous model, nil on a classic
// fabric — for the benchmark sweeps that check measured clocks against
// the raw model.
func (k *Kernel) Protocol() interconnect.ProtocolModel { return k.proto }
