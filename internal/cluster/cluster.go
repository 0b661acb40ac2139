// Package cluster models the machine the paper evaluates on: a set of
// 300 MHz Pentium II PCs, each with 64 MB of memory, placed on a V-Bus
// mesh. It provides the per-process *virtual clocks* that the MPI
// runtime and the interpreter charge, and the CPU cost parameters used
// to convert abstract operation counts into virtual time.
//
// Virtual time replaces wall-clock measurement: every experiment in
// EXPERIMENTS.md compares virtual times, which makes results exactly
// reproducible and independent of the host machine.
package cluster

import (
	"fmt"
	"sync"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/mesh"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// CPUParams is the processor cost model. The defaults approximate a
// 300 MHz Pentium II running naive compiled Fortran loops: each
// floating-point operation in a loop body costs a couple of cycles once
// loads, stores and address arithmetic are folded in.
type CPUParams struct {
	// FlopTime is the charged time per floating-point operation
	// (including its share of loads/stores/address math).
	FlopTime sim.Time
	// IntOpTime is the charged time per integer/logical operation.
	IntOpTime sim.Time
	// LoopOverhead is the charged time per loop iteration for the
	// increment/test/branch.
	LoopOverhead sim.Time
	// MemCopyPerByte is the charged time per byte for local memory
	// copies (used for rank-local "communication").
	MemCopyPerByte sim.Time
	// CallOverhead is the charged time per subroutine call.
	CallOverhead sim.Time
	// SPMDIterOverhead is the extra per-iteration cost of a partitioned
	// (SPMD-ized) loop relative to the original sequential loop: the
	// generated code computes rank-dependent bounds and strides. It is
	// what makes the paper's 1-node "speedup" land below 1 (Table 1's
	// 0.96) independent of problem size.
	SPMDIterOverhead sim.Time
}

// DefaultCPUParams returns the Pentium II calibration.
func DefaultCPUParams() CPUParams {
	return CPUParams{
		FlopTime:         20 * sim.Nanosecond, // ~6 cycles @300MHz: mul/add + loads
		IntOpTime:        7 * sim.Nanosecond,
		LoopOverhead:     10 * sim.Nanosecond,
		MemCopyPerByte:   5 * sim.Nanosecond, // ~200 MB/s copy on 2001 SDRAM
		CallOverhead:     100 * sim.Nanosecond,
		SPMDIterOverhead: 6 * sim.Nanosecond,
	}
}

// Params bundles everything the runtime needs to cost operations.
type Params struct {
	CPU CPUParams
	// Fabric is the interconnect cost model shared by all nodes — the
	// pluggable machine-layer seam. Any registered backend (vbus,
	// ethernet, ideal, ...) slots in here; see ParamsForFabric.
	Fabric interconnect.Interconnect
	// MeshWidth/MeshHeight place the nodes. Nodes beyond the process
	// count stay idle. Ignored when MeshDims is set.
	MeshWidth, MeshHeight int
	// MeshDims generalizes the placement to an N-dimensional grid
	// (e.g. [16, 8, 8] for a 1024-node 3-D torus). Empty means
	// [MeshWidth, MeshHeight]. See Geometry.
	MeshDims []int
	// Torus wraps the mesh in every dimension, shortening worst-case
	// hop distances.
	Torus bool
	// Faults is the optional deterministic fault injector. Nil (the
	// default) models the paper's perfect network: no retries, no
	// outages, no slow or crashed nodes — and every charge is
	// bit-identical to a build without the fault layer.
	Faults *fault.Injector
}

// DefaultParams is the paper configuration: V-Bus cards on a 2x2 mesh
// (the experiment used a 4-node configuration). Every call shares one
// card: a card is read-only, and the default one is always the same.
func DefaultParams() Params {
	return Params{
		CPU:        DefaultCPUParams(),
		Fabric:     defaultCard(),
		MeshWidth:  2,
		MeshHeight: 2,
	}
}

// defaultCard builds the default V-Bus card once.
var defaultCard = sync.OnceValue(func() *nic.VBus {
	card, err := nic.NewVBus(nic.DefaultVBusConfig())
	if err != nil {
		panic("cluster: default vbus config invalid: " + err.Error())
	}
	return card
})

// ParamsForFabric is DefaultParams with the interconnect swapped for
// the named registered backend ("vbus", "ethernet", "ideal", ...).
// The empty name means the default machine.
func ParamsForFabric(name string) (Params, error) {
	p := DefaultParams()
	if name == "" {
		return p, nil
	}
	ic, err := interconnect.New(name)
	if err != nil {
		return Params{}, fmt.Errorf("cluster: %w", err)
	}
	p.Fabric = ic
	return p, nil
}

// CommCost builds the machine's transfer-pricing kernel — the single
// construction point for the runtime (one per Cluster), the compiler's
// coalesce stage, the static estimator and the benchmark sweeps.
func (p Params) CommCost() *commcost.Kernel {
	return commcost.New(p.Fabric, p.CPU.MemCopyPerByte)
}

// Geometry is the grid the ranks are placed on, row-major: MeshDims
// when set, otherwise MeshWidth×MeshHeight, wrapped when Torus is set.
// Its walk is the one the flit-level simulator routes on, so the
// runtime's charging, its link-outage paths and the compiler's static
// cost estimator cannot disagree with it or with each other.
func (p Params) Geometry() mesh.Geometry {
	dims := p.MeshDims
	if len(dims) == 0 {
		dims = []int{p.MeshWidth, p.MeshHeight}
	}
	return mesh.Geometry{Dims: dims, Torus: p.Torus}
}

// Cluster is a set of processes with virtual clocks placed on a mesh.
//
// It takes no lock. A node's accounting has one writer at a time: the
// node's own rank, or the releaser of a rendezvous that rank is parked
// in (Release). The rendezvous orders the two — the rank's arrival
// before the release, the release before the rank's wake — and a read
// of another node's accounting (TotalXferTime on the master, Snapshot
// after a run) is likewise ordered after that node's writes by a
// rendezvous or by the end of the run.
type Cluster struct {
	params Params
	geo    mesh.Geometry
	n      int
	// coords prices a charged transfer's hop count without dividing.
	coords mesh.Coords
	// kernel prices every data transfer charged on this machine.
	kernel *commcost.Kernel

	// rec is the optional event recorder. It is attached once, before
	// the per-rank goroutines start, and read (nil-checked) on every
	// operation, so tracing costs one pointer load when off.
	rec *trace.Recorder

	acct []nodeAcct

	// regCaches holds one memory-registration cache per physical node
	// when the fabric prices an eager/rendezvous protocol choice, nil
	// otherwise (commcost.Kernel.NewRegCaches). Like opsSeen, the
	// caches are per-node sender-side state that survives communicator
	// rebuilds and is cleared by Reset. They live here rather than in
	// the card because core.Compiled shares one card instance across
	// concurrent runs (the vbserve plan cache) — mutable per-run state
	// in the card would race.
	regCaches []*interconnect.RegCache
}

// nodeAcct is one node's clock and accounting.
type nodeAcct struct {
	clock sim.Time
	comm  sim.Time // communication time charged
	xfer  sim.Time // data-transfer subset of comm (no sync)
	comp  sim.Time // computation time charged
	bytes int64
	ops   int64
	// opsSeen counts MPI operations issued. It feeds the crashafter
	// fault and is only bumped when such a fault is scheduled, so the
	// zero-fault hot path never touches it.
	opsSeen int64
}

// New builds a cluster of n processes. Ranks are placed row-major on
// the mesh; n may not exceed the mesh capacity. Geometry rejections
// carry the mesh package's named errors (mesh.ErrBadGeometry,
// mesh.ErrGeometryMismatch) so callers can classify them.
func New(n int, params Params) (*Cluster, error) {
	if n <= 0 {
		return nil, fmt.Errorf("cluster: need at least one process, got %d", n)
	}
	geo := params.Geometry()
	if err := geo.Check(n); err != nil {
		return nil, fmt.Errorf("cluster: %d processes: %w", n, err)
	}
	if params.Fabric == nil {
		return nil, fmt.Errorf("cluster: nil interconnect backend")
	}
	kernel := params.CommCost()
	c := &Cluster{
		params:    params,
		geo:       geo,
		n:         n,
		kernel:    kernel,
		coords:    geo.Coords(n),
		regCaches: kernel.NewRegCaches(n),
		acct:      make([]nodeAcct, n),
	}
	return c, nil
}

// N reports the process count.
func (c *Cluster) N() int { return c.n }

// Params returns the cost parameters.
func (c *Cluster) Params() Params { return c.params }

// Fabric returns the interconnect cost model.
func (c *Cluster) Fabric() interconnect.Interconnect { return c.params.Fabric }

// SetRecorder attaches an event recorder (nil detaches). It must be
// called before the run's goroutines start issuing operations.
func (c *Cluster) SetRecorder(r *trace.Recorder) { c.rec = r }

// Recorder returns the attached event recorder, nil when tracing is
// off.
func (c *Cluster) Recorder() *trace.Recorder { return c.rec }

// Geometry returns the grid the ranks are placed on.
func (c *Cluster) Geometry() mesh.Geometry { return c.geo }

// Hops reports the mesh hop distance between two ranks' nodes.
func (c *Cluster) Hops(a, b int) int { return c.coords.Hops(a, b) }

// CommCost returns the machine's transfer-pricing kernel.
func (c *Cluster) CommCost() *commcost.Kernel { return c.kernel }

// RegCache returns node's memory-registration cache, or nil when the
// fabric has no eager/rendezvous protocol model.
func (c *Cluster) RegCache(node int) *interconnect.RegCache {
	if c.regCaches == nil {
		return nil
	}
	c.check(node)
	return c.regCaches[node]
}

func (c *Cluster) check(rank int) {
	if rank < 0 || rank >= c.n {
		panic(fmt.Sprintf("cluster: rank %d out of range [0,%d)", rank, c.n))
	}
}

// Clock reports rank's current virtual time.
func (c *Cluster) Clock(rank int) sim.Time {
	c.check(rank)
	return c.acct[rank].clock
}

// ChargeCompute advances rank's clock by d and books it as computation.
// A slow-node fault scales the charge: the injected factor models a
// thermally throttled or overloaded node that still makes progress.
func (c *Cluster) ChargeCompute(rank int, d sim.Time) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative compute charge")
	}
	if f := c.params.Faults.SlowFactor(rank); f > 1 {
		d = sim.Time(float64(d)*f + 0.5)
	}
	a := &c.acct[rank]
	a.clock += d
	a.comp += d
}

// Faults returns the cluster's fault injector (nil when fault injection
// is off — the nil injector is inert, so callers may use it directly).
func (c *Cluster) Faults() *fault.Injector { return c.params.Faults }

// ChargeComm advances rank's clock by d and books it as communication,
// with bytes moved for throughput accounting.
func (c *Cluster) ChargeComm(rank int, d sim.Time, bytes int) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative comm charge")
	}
	a := &c.acct[rank]
	a.clock += d
	a.comm += d
	a.xfer += d
	a.bytes += int64(bytes)
	a.ops++
}

// BookComm records d of communication time (and bytes) on rank's
// accounting without advancing its clock: a receive books the stall
// its clock already absorbed through AdvanceTo.
func (c *Cluster) BookComm(rank int, d sim.Time, bytes int) {
	c.check(rank)
	if d < 0 {
		panic("cluster: negative comm booking")
	}
	a := &c.acct[rank]
	a.comm += d
	a.bytes += int64(bytes)
	a.ops++
}

// AdvanceTo lifts rank's clock to at least t (used when a receive
// blocks until a matching send: waiting is neither compute nor comm
// work, but time still passes).
func (c *Cluster) AdvanceTo(rank int, t sim.Time) {
	c.check(rank)
	a := &c.acct[rank]
	if a.clock < t {
		a.clock += t - a.clock
	}
}

// Release ends a synchronizing operation over nodes: every listed
// clock is lifted to at least t (never rewound) and d of communication
// in ops operations is booked on every listed node, as ops BookComm
// calls summing to d would. Collectives release
// their whole membership through it; nodes outside the list — dead or
// excluded ranks of a shrunken communicator — keep their last clock
// reading. The caller is every listed node's one writer: each node's
// rank is parked in the caller's rendezvous, or has stopped.
func (c *Cluster) Release(nodes []int, t, d sim.Time, ops int64) {
	if d < 0 || ops < 0 {
		panic("cluster: negative comm booking")
	}
	for _, r := range nodes {
		c.check(r)
		a := &c.acct[r]
		a.clock = max(a.clock, t)
		a.comm += d
		a.ops += ops
	}
}

// BumpOps increments rank's MPI-operation counter and returns the new
// count. The counter persists across communicator rebuilds so a
// crashafter fault keyed on the physical node fires exactly once.
func (c *Cluster) BumpOps(rank int) int64 {
	c.check(rank)
	c.acct[rank].opsSeen++
	return c.acct[rank].opsSeen
}

// MaxClock reports the furthest-ahead clock.
func (c *Cluster) MaxClock() sim.Time {
	var m sim.Time
	for i := range c.acct {
		m = max(m, c.acct[i].clock)
	}
	return m
}

// TotalXferTime sums the data-transfer time charged so far over all
// ranks — what Snapshot().TotalXferTime() reports, without copying the
// whole accounting state.
func (c *Cluster) TotalXferTime() sim.Time {
	var s sim.Time
	for i := range c.acct {
		s += c.acct[i].xfer
	}
	return s
}

// Report is a per-run accounting snapshot.
type Report struct {
	Clocks []sim.Time
	// CommTime is all communication time per rank, synchronization
	// (barriers, fences, collective waits) included.
	CommTime []sim.Time
	// XferTime is the data-transfer subset of CommTime: the cost of the
	// PUT/GET/send payload movement that the compiler's communication
	// granularity controls.
	XferTime  []sim.Time
	CompTime  []sim.Time
	CommBytes []int64
	CommOps   []int64
}

// TotalXferTime sums the data-transfer time over all ranks — the
// granularity-sensitive "communication time" that Table 2 compares.
func (r Report) TotalXferTime() sim.Time {
	var s sim.Time
	for _, t := range r.XferTime {
		s += t
	}
	return s
}

// TotalCommTime sums all communication time (including
// synchronization) over all ranks.
func (r Report) TotalCommTime() sim.Time {
	var s sim.Time
	for _, t := range r.CommTime {
		s += t
	}
	return s
}

// ElapsedVirtual is the makespan: the furthest-ahead clock.
func (r Report) ElapsedVirtual() sim.Time {
	var max sim.Time
	for _, t := range r.Clocks {
		if t > max {
			max = t
		}
	}
	return max
}

// MaxCommTime is the largest per-rank communication time — the paper's
// "total communication time" metric (the comm time on the critical
// path).
func (r Report) MaxCommTime() sim.Time {
	var max sim.Time
	for _, t := range r.CommTime {
		if t > max {
			max = t
		}
	}
	return max
}

// TotalCommBytes sums bytes moved by every rank.
func (r Report) TotalCommBytes() int64 {
	var s int64
	for _, b := range r.CommBytes {
		s += b
	}
	return s
}

// TotalCommOps sums communication operations issued by every rank.
func (r Report) TotalCommOps() int64 {
	var s int64
	for _, b := range r.CommOps {
		s += b
	}
	return s
}

// Snapshot copies the current accounting state.
func (c *Cluster) Snapshot() Report {
	r := Report{
		Clocks:    make([]sim.Time, c.n),
		CommTime:  make([]sim.Time, c.n),
		XferTime:  make([]sim.Time, c.n),
		CompTime:  make([]sim.Time, c.n),
		CommBytes: make([]int64, c.n),
		CommOps:   make([]int64, c.n),
	}
	for i, a := range c.acct {
		r.Clocks[i], r.CommTime[i], r.XferTime[i] = a.clock, a.comm, a.xfer
		r.CompTime[i], r.CommBytes[i], r.CommOps[i] = a.comp, a.bytes, a.ops
	}
	return r
}

// Reset zeroes all clocks and accounting, and empties the
// registration caches (a fresh run starts with nothing pinned).
func (c *Cluster) Reset() {
	clear(c.acct)
	for _, rc := range c.regCaches {
		rc.Reset()
	}
}
