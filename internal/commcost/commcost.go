// Package commcost is the one place the runtime's charges are composed
// from the interconnect card's physics. A Kernel is built once per
// machine from the card and the CPU's memory-copy rate, and answers
// every question the compiler, the static estimator and the MPI
// runtime ask about communication cost:
//
//   - Price: what one data transfer costs and on which path it travels
//     (packed, strided, contiguous, eager or rendezvous), given the hop
//     distance and the origin node's registration cache. The runtime
//     calls it with the live cache, postpass.EstimateCommCost folds it
//     over the compiled plan with simulated caches, and the coalesce
//     stage asks it for the two stamping thresholds — so the static
//     estimate equals the measured transfer time because both are the
//     same function of the same inputs;
//   - Setup, Msg, Tree, Bcast and Barrier: the few shapes every other
//     charge is built from — a control word, a software-tree stage, a
//     one-to-all broadcast (the V-Bus hardware bus when the card has
//     one, the binomial p2p tree otherwise) and the gather-plus-release
//     barrier. Barriers, fences, locks, the collectives, checkpoint,
//     recovery and the reliable transport's ACK latency are one-line
//     compositions of these in internal/mpi.
//
// It is the only package that type-asserts interconnect.ProtocolModel
// or interconnect.Bus; layering_test.go fails on the first call site
// outside the card and simulator packages that combines card
// primitives into a charge around it.
package commcost

import (
	"math/bits"
	"sort"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// WordBytes is the wire size of one element (REAL*8).
const WordBytes = 8

// packCrossoverCap bounds the pack crossover search: a card whose packed
// path has not beaten the strided path by this many elements never
// benefits from coalescing (an idealized fabric with free PIO, for
// example).
const packCrossoverCap = 1 << 20

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

// Kernel prices every charge on one machine. It is immutable after New
// and safe for concurrent use; all mutable state (the registration
// caches) is passed in per call.
type Kernel struct {
	card interconnect.Interconnect
	// memCopyPerByte is the CPU's per-byte copy charge, paid twice on
	// the pack path (pack at the origin, unpack at the target, both
	// charged to the origin).
	memCopyPerByte sim.Time
	// bus is the card's hardware broadcast, nil on a card without one.
	bus interconnect.Bus
	// proto is the card's eager/rendezvous model, nil on classic
	// fabrics.
	proto interconnect.ProtocolModel
	// contigTr and stridedTr are the capability-derived transport
	// classes of the classic contiguous and strided paths.
	contigTr, stridedTr interconnect.Transport
}

// New builds the machine's kernel from its interconnect card and the
// CPU's per-byte memory-copy charge (the pack path's two copies). The
// card's optional extensions are resolved here, once.
func New(card interconnect.Interconnect, memCopyPerByte sim.Time) *Kernel {
	caps := card.Caps()
	k := &Kernel{
		card:           card,
		memCopyPerByte: memCopyPerByte,
		contigTr:       caps.ContigTransport(),
		stridedTr:      caps.StridedTransport(),
	}
	k.bus, _ = card.(interconnect.Bus)
	k.proto, _ = card.(interconnect.ProtocolModel)
	return k
}

// Setup is the per-message software overhead a sender pays before any
// data moves — the root's post that opens a broadcast or an agreement
// round.
func (k *Kernel) Setup() sim.Time { return k.card.SendSetup() }

// Msg is one message through the runtime's pre-registered internal
// buffers: setup plus the contiguous wire time of bytes over hops. It
// prices a lock or unlock word, one software-tree stage, the checkpoint
// stream and the reliable transport's ACK latency.
func (k *Kernel) Msg(bytes, hops int) sim.Time {
	return k.card.SendSetup() + k.card.ContigTime(bytes, hops)
}

// Tree is a binomial software tree over nodes: ⌈log₂ nodes⌉ stages of
// one one-hop Msg each (the tree pairs mesh neighbours). Zero for a
// single node.
func (k *Kernel) Tree(bytes, nodes int) sim.Time {
	if nodes <= 1 {
		return 0
	}
	stages := bits.Len(uint(nodes - 1))
	return sim.Time(stages) * k.Msg(bytes, 1)
}

// Bcast is the time for bytes to reach every one of nodes nodes,
// setup excluded: the card's hardware bus when it has one (one
// arbitration, one stream, every node listens — the paper's §2 claim),
// the software Tree otherwise. The caller decides when the bus cannot
// be used (a shrunken membership, a failed acquisition) and takes the
// Tree instead.
func (k *Kernel) Bcast(bytes, nodes int) sim.Time {
	if k.bus != nil {
		return k.bus.BroadcastTime(bytes, nodes)
	}
	return k.Tree(bytes, nodes)
}

// Barrier is one barrier among nodes: a one-word Tree gather plus a
// one-word release — the Bcast when onBus, a second Tree when the
// members cannot address the bus (a world shrunk below the machine,
// whose broadcasts take the tree too).
func (k *Kernel) Barrier(nodes int, onBus bool) sim.Time {
	release := k.Tree(WordBytes, nodes)
	if onBus {
		release = k.Bcast(WordBytes, nodes)
	}
	return k.Tree(WordBytes, nodes) + release
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
		return k.packed(int(a.Elems), hops), interconnect.TransportPack
	case a.Stride > 1:
		return k.strided(int(a.Elems), hops), k.stridedTr
	case k.proto == nil:
		return k.Msg(a.Bytes(), hops), k.contigTr
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

// strided is the per-element path: setup plus the card's strided time
// (programmed I/O, or a scatter/gather engine).
func (k *Kernel) strided(elems, hops int) sim.Time {
	return k.card.SendSetup() + k.card.StridedTime(elems, WordBytes, hops)
}

// packed is the pack-and-coalesce path, the APENet remedy for a card
// without strided DMA: the strided request's setup, the pack and unpack
// copies (both charged to the origin, matching the runtime's
// origin-charging model), and one contiguous Msg of the packed payload
// from the staging buffer. An empty transfer costs nothing.
func (k *Kernel) packed(elems, hops int) sim.Time {
	if elems <= 0 {
		return 0
	}
	bytes := elems * WordBytes
	return k.card.SendSetup() + 2*sim.Time(bytes)*k.memCopyPerByte + k.Msg(bytes, hops)
}

// PackThreshold is the element count at and above which the coalesce
// stage marks a strided transfer Packed: the smallest count at which
// the packed path is strictly cheaper than the strided one (a single
// element is already contiguous). Both curves are linear in the element
// count with the same wire term, so once packing wins it keeps winning
// and the crossover is independent of stride and hop distance. Zero
// means packing never beats the strided path on this card.
func (k *Kernel) PackThreshold() int64 {
	x := sort.Search(packCrossoverCap+1, func(elems int) bool {
		return elems > 1 && k.packed(elems, 1) < k.strided(elems, 1)
	})
	if x > packCrossoverCap {
		return 0
	}
	return int64(x)
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
