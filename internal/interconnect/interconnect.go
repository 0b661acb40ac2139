// Package interconnect defines the machine-layer seam of the
// environment: the Interconnect interface every network backend
// implements, and a registry of named backends selectable from
// cluster.Params and the -fabric CLI flag.
//
// The paper's central argument is comparative — the V-Bus card against
// Fast Ethernet, DMA against programmed I/O — so the runtime must be
// able to price every operation against interchangeable cost models.
// An Interconnect exposes five methods of *physics* — its name, the
// per-message send setup, the contiguous and strided payload times, and
// its capability flags — rather than moving bytes itself: the MPI
// runtime moves the real data through Go memory and charges
// per-process virtual clocks with costs that internal/commcost composes
// from these. Two optional extensions, each resolved once per machine
// by commcost, carry what only some cards have: Bus (a hardware
// broadcast) and ProtocolModel (an eager/rendezvous switch). Swapping the backend therefore changes every virtual time in
// a run while leaving numeric program results bit-identical.
//
// Backends register themselves under a short name (nic registers
// "vbus" and "ethernet" in its init; this package registers "ideal").
// New fabrics plug in by implementing Interconnect and calling
// Register — nothing in cluster, mpi, postpass or the binaries needs
// to change.
package interconnect

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"vbuscluster/internal/sim"
)

// Caps describes the data-path capabilities of a backend — the
// qualitative DMA-vs-PIO distinctions of §2.2 that the compiler's
// granularity reasoning is built on, separated from the quantitative
// cost functions.
type Caps struct {
	// DMAContig reports that contiguous transfers move user buffer →
	// driver buffer without interrupting the processor (the V-Bus DMA
	// path). False means the contiguous path is kernel/CPU mediated.
	DMAContig bool
	// PIOStrided reports that strided transfers pay a per-element
	// programmed-I/O cost on the sender — the penalty that makes the
	// compiler's middle/coarse granularities worthwhile.
	PIOStrided bool
	// HardwareBroadcast reports a one-to-all primitive in hardware (the
	// virtual bus; the backend implements Bus). False means broadcasts
	// decay to a software tree of point-to-point messages.
	HardwareBroadcast bool
	// HopSensitive reports that transfer cost grows with mesh hop
	// distance. False models a shared medium (Ethernet) or an idealized
	// fabric where placement is irrelevant.
	HopSensitive bool
	// EagerRendezvous reports that the contiguous path is protocol
	// switched between an eager bounce-buffer copy and a rendezvous
	// registration + zero-copy DMA (the backend implements
	// ProtocolModel and the runtime charges whichever path is chosen
	// per message).
	EagerRendezvous bool
}

// String renders the capability flags compactly, e.g. "dma+pio+hwbcast+hops".
func (c Caps) String() string {
	out := ""
	add := func(on bool, tag string) {
		if !on {
			return
		}
		if out != "" {
			out += "+"
		}
		out += tag
	}
	add(c.DMAContig, "dma")
	add(c.PIOStrided, "pio")
	add(c.HardwareBroadcast, "hwbcast")
	add(c.HopSensitive, "hops")
	add(c.EagerRendezvous, "rndv")
	if out == "" {
		out = "none"
	}
	return out
}

// Interconnect is the physics of one cluster fabric: what a message
// costs the sender before any data moves, and how long a contiguous or
// a strided payload takes to land. Everything the runtime charges is
// composed from these by internal/commcost; a card states facts, it
// does not price collectives. All times are virtual; implementations
// must return non-negative times that are monotone non-decreasing in
// payload size (see the contract tests).
type Interconnect interface {
	// Name identifies the backend model.
	Name() string
	// SendSetup is the per-message software overhead on the sender
	// (driver + message-queue handling), charged before any data moves.
	SendSetup() sim.Time
	// ContigTime is the time for a contiguous payload of the given size
	// to move from the sender's user buffer into the receiver's memory
	// over the given hop distance, excluding SendSetup.
	ContigTime(bytes, hops int) sim.Time
	// StridedTime is like ContigTime for a strided region of elems
	// elements of elemSize bytes, using the element-by-element path.
	StridedTime(elems, elemSize, hops int) sim.Time
	// Caps reports the backend's data-path capability flags.
	Caps() Caps
}

// Bus is an optional Interconnect extension for a card with a
// one-to-all primitive in hardware (the V-Bus virtual bus). A card
// implements it exactly when Caps().HardwareBroadcast is set (the
// contract tests check both directions); internal/commcost resolves it
// once per machine and broadcasts over the binomial software tree on a
// card without it.
type Bus interface {
	// BroadcastTime is the time for a payload to reach every one of
	// nodes nodes, excluding SendSetup; zero for a single node.
	BroadcastTime(bytes, nodes int) sim.Time
}

// GeometryHinter is an optional Interconnect extension: a backend
// whose hop model assumes a particular mesh shape (the 3D-torus
// vbus3d card, for instance, prices hops over three dimensions)
// implements it to tell the machine layer which geometry to build
// for n processes when the caller did not pin one. Backends without
// a preference simply don't implement it and get the default
// near-square 2D mesh.
type GeometryHinter interface {
	// PreferredGeometry returns the mesh dimensions (product >= n)
	// and whether wraparound links should be enabled.
	PreferredGeometry(n int) (dims []int, torus bool)
}

// ProtocolModel is an optional Interconnect extension for RDMA-class
// fabrics whose contiguous path is protocol switched (the rdma card).
// Two paths are priced per transfer: eager copies the payload into a
// pre-registered bounce buffer (per-byte copy cost, no handshake) and
// rendezvous runs an RTS/CTS handshake plus on-demand memory
// registration before a zero-copy DMA. internal/commcost is the model's
// one consumer: it chooses the path per message for the runtime and the
// static estimator alike, and derives the coalesce stage's stamping
// threshold.
//
// Both time functions are full origin-side costs (send setup included,
// unlike ContigTime) and must be non-negative and monotone
// non-decreasing in bytes, with the eager path's per-byte slope
// strictly above the rendezvous path's so a crossover, if it exists,
// is unique (the contract tests sweep every registered backend).
type ProtocolModel interface {
	// EagerTime is the origin-side cost of moving bytes over the eager
	// path: post + bounce-buffer copies + wire.
	EagerTime(bytes, hops int) sim.Time
	// RendezvousTime is the origin-side cost of the rendezvous path:
	// post + RTS/CTS handshake + memory registration (skipped when the
	// source region is already registered) + zero-copy wire.
	RendezvousTime(bytes, hops int, registered bool) sim.Time
	// ProtocolCrossoverBytes is the smallest payload at which the
	// rendezvous path beats eager, with the registration cost blended
	// by the expected registration-cache hit rate in [0,1] (0 = every
	// transfer registers, 1 = registration always cached). Returns 0
	// when rendezvous never wins within the search cap.
	ProtocolCrossoverBytes(hops int, hitRate float64) int64
	// RegCacheCapacity is the per-node registration-cache capacity in
	// entries; the machine layer sizes each node's RegCache with it.
	RegCacheCapacity() int
}

// Factory builds a fresh backend instance with its default calibration.
type Factory func() (Interconnect, error)

var registry = struct {
	sync.Mutex
	m map[string]Factory
}{m: map[string]Factory{}}

// Register makes a backend available under name. It panics on a
// duplicate name: backends register from package init functions, where
// a collision is a programming error.
func Register(name string, f Factory) {
	registry.Lock()
	defer registry.Unlock()
	if name == "" || f == nil {
		panic("interconnect: Register with empty name or nil factory")
	}
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("interconnect: backend %q registered twice", name))
	}
	registry.m[name] = f
}

// New builds the named backend. The error lists the registered
// backends with their capability flags so a mistyped -fabric flag is
// self-explaining. The listing is snapshotted under the same lock hold
// as the failed lookup, so it is deterministic even when New races a
// concurrent Register.
func New(name string) (Interconnect, error) {
	registry.Lock()
	f, ok := registry.m[name]
	var snapshot map[string]Factory
	if !ok {
		snapshot = make(map[string]Factory, len(registry.m))
		for n, fac := range registry.m {
			snapshot[n] = fac
		}
	}
	registry.Unlock()
	if !ok {
		return nil, fmt.Errorf("interconnect: unknown backend %q (registered: %s)",
			name, strings.Join(describe(snapshot), ", "))
	}
	return f()
}

// MustNew is New for tests and init-time wiring: it panics on an
// unknown backend or a factory error.
func MustNew(name string) Interconnect {
	ic, err := New(name)
	if err != nil {
		panic(err)
	}
	return ic
}

// Names lists the registered backends in sorted order.
func Names() []string {
	registry.Lock()
	defer registry.Unlock()
	out := make([]string, 0, len(registry.m))
	for n := range registry.m {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Describe lists the registered backends with their capability flags —
// "rdma [dma+hops+rndv]" — the rendering registry errors and -fabric
// validation messages print.
func Describe() []string {
	registry.Lock()
	snapshot := make(map[string]Factory, len(registry.m))
	for n, f := range registry.m {
		snapshot[n] = f
	}
	registry.Unlock()
	return describe(snapshot)
}

// describe renders a factory snapshot as sorted "name [caps]" entries.
// Factories are invoked outside the registry lock; one that errors
// lists its bare name.
func describe(snapshot map[string]Factory) []string {
	names := make([]string, 0, len(snapshot))
	for n := range snapshot {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		ic, err := snapshot[n]()
		if err != nil {
			out[i] = n
			continue
		}
		out[i] = fmt.Sprintf("%s [%s]", n, ic.Caps())
	}
	return out
}
