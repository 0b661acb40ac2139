// Package mpi implements the MPI-2 subset the paper's environment
// provides on the V-Bus PC-cluster: the traditional two-sided
// SEND/RECEIVE of MPI-1 plus the MPI-2 one-sided extensions — memory
// windows, one descriptor-based MPI_PUT/MPI_GET/MPI_ACCUMULATE verb each
// (Put, Get, Accumulate, and the charge-only Charge; desc.go) covering
// contiguous (DMA), strided (programmed I/O) and packed transfers,
// fences, locks — and collectives that exploit the V-Bus hardware
// broadcast.
//
// Each MPI process is a goroutine holding a *Proc handle. Data really
// moves between Go buffers; time is virtual: every operation charges
// the calling rank's clock in the underlying cluster.Cluster. What a
// data transfer costs, and on which path, is the machine's
// commcost.Kernel's answer — the same kernel the compiler's static
// estimator folds over the plan, so runtime and compile-time comm costs
// are one function, backend by backend. Collectives, barriers and locks
// price their control messages against the interconnect cost model
// (internal/interconnect) directly, and synchronizing operations
// (barrier, fence, collectives) reconcile the clocks. Charging the full
// transfer time to the origin rank makes the fence-time reconciliation
// sound: data always lands at or before the origin's post-call clock.
//
// The element type of all buffers is float64 — the machine word of the
// Fortran system built on top (REAL and INTEGER values both travel as
// 8-byte words, as the compiler's code generator emits them).
package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// WordBytes is the wire size of one element.
const WordBytes = commcost.WordBytes

// World is a communicator spanning every process of the cluster (the
// analogue of MPI_COMM_WORLD).
type World struct {
	cl *cluster.Cluster
	n  int
	// nodes maps communicator rank → physical cluster node. The world
	// spanning every node is the identity mapping; a communicator
	// shrunk after a crash (NewWorldOver) re-ranks the survivors
	// contiguously while clocks, fault schedules and traces stay keyed
	// to the physical node.
	nodes []int

	mu   sync.Mutex
	cond *sync.Cond

	// Collective rendezvous state (one collective in flight at a time,
	// as MPI ordering rules require).
	arrived int
	gen     uint64
	maxT    sim.Time
	slots   map[uint64]*collSlot
	// noVals is what a collective's finish sees when no rank
	// contributed a value (every barrier): n nil entries, read-only.
	noVals [][]float64

	// Window registry (windows are created collectively by name).
	wins map[string]*Win

	// Two-sided mailboxes.
	boxes map[mbKey][]*pendingSend

	barrierCost sim.Time

	// Fault-injection state (see faults.go). inj is nil on a clean
	// machine; the remaining fields are then never touched on hot paths.
	inj *fault.Injector
	// pktSeq hands out per-(src,dst) packet sequence numbers, flattened
	// [src*n+dst]; nil on a clean machine. Each element is written only
	// by src's goroutine.
	pktSeq []int
	// bcastSeq numbers broadcasts deterministically (guarded by mu: it
	// is only consumed inside collective finish closures).
	bcastSeq int
	// down marks crashed or departed ranks (guarded by mu).
	down  []bool
	nDown int
	// crashed marks the subset of down ranks that actually failed (as
	// opposed to departing collaterally after a peer's failure). The
	// recovery protocol's Agree round excludes only these.
	crashed []bool
	// revoked poisons the communicator (ULFM MPI_Comm_revoke): every
	// subsequent or blocked operation fails with ErrRevoked so all
	// ranks reach the recovery path instead of deadlocking.
	revoked bool
	// watchStop stops the deadline watchdog goroutine.
	watchStop chan struct{}

	// cancelled flags an external run abort (World.Cancel): every
	// subsequent or blocked operation fails with ErrCancelled. The flag
	// is an atomic so the per-operation entry check stays lock-free;
	// cancelCh is closed alongside it so channel-based waits (window
	// lock acquisition) can select on cancellation.
	cancelled atomic.Bool
	cancelCh  chan struct{}
}

// NewWorld creates the communicator for all ranks of c.
func NewWorld(c *cluster.Cluster) *World {
	nodes := make([]int, c.N())
	for i := range nodes {
		nodes[i] = i
	}
	return newWorld(c, nodes)
}

// NewWorldOver creates a communicator over a subset of c's nodes:
// rank i of the new world runs on physical node nodes[i]. The
// recovery protocol uses it to shrink the world to the survivors of a
// crash with contiguous re-ranked ids (ULFM MPI_Comm_shrink).
func NewWorldOver(c *cluster.Cluster, nodes []int) *World {
	if len(nodes) == 0 {
		panic("mpi: NewWorldOver needs at least one node")
	}
	for _, nd := range nodes {
		if nd < 0 || nd >= c.N() {
			panic(fmt.Sprintf("mpi: NewWorldOver node %d out of range [0,%d)", nd, c.N()))
		}
	}
	return newWorld(c, append([]int(nil), nodes...))
}

func newWorld(c *cluster.Cluster, nodes []int) *World {
	n := len(nodes)
	w := &World{
		cl:       c,
		n:        n,
		nodes:    nodes,
		slots:    make(map[uint64]*collSlot),
		noVals:   make([][]float64, n),
		wins:     make(map[string]*Win),
		boxes:    make(map[mbKey][]*pendingSend),
		inj:      c.Faults(),
		down:     make([]bool, n),
		crashed:  make([]bool, n),
		cancelCh: make(chan struct{}),
	}
	w.cond = sync.NewCond(&w.mu)
	if w.inj != nil {
		w.pktSeq = make([]int, n*n)
	}
	if w.inj.Deadline() > 0 {
		w.startWatchdog()
	}
	// Barrier = gather over log2(n) p2p stages + V-Bus release
	// broadcast. Precomputed once; charged at every barrier/fence.
	card := c.Fabric()
	stages := 0
	for p := 1; p < w.n; p *= 2 {
		stages++
	}
	w.barrierCost = sim.Time(stages)*(card.SendSetup()+card.ContigTime(WordBytes, 1)) +
		card.BroadcastTime(WordBytes, w.n)
	// Even a single-process barrier is a library call.
	if floor := c.Params().CPU.CallOverhead; w.barrierCost < floor {
		w.barrierCost = floor
	}
	return w
}

// Size reports the number of ranks.
func (w *World) Size() int { return w.n }

// Nodes returns the physical cluster node of every rank (a copy).
func (w *World) Nodes() []int { return append([]int(nil), w.nodes...) }

// nodeOf maps a communicator rank to its physical cluster node.
// Negative pseudo-ranks (AnySource, "no peer") pass through, as do
// out-of-range ranks: the charge-only helpers may price a transfer to
// a mesh node beyond the communicator (timing-mode estimation).
func (w *World) nodeOf(r int) int {
	if r < 0 || r >= len(w.nodes) {
		return r
	}
	return w.nodes[r]
}

// Cluster exposes the underlying machine model.
func (w *World) Cluster() *cluster.Cluster { return w.cl }

// BarrierCost reports the charged cost of one barrier.
func (w *World) BarrierCost() sim.Time { return w.barrierCost }

// Proc is rank-local handle through which a process issues MPI calls.
// A Proc must only be used from its owning goroutine.
type Proc struct {
	w    *World
	rank int
}

// Rank returns a handle for the given rank.
func (w *World) Rank(r int) *Proc {
	if r < 0 || r >= w.n {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, w.n))
	}
	return &Proc{w: w, rank: r}
}

// Rank reports the calling process's rank.
func (p *Proc) Rank() int { return p.rank }

// Size reports the communicator size.
func (p *Proc) Size() int { return p.w.n }

// World returns the communicator.
func (p *Proc) World() *World { return p.w }

// node is the calling rank's physical cluster node.
func (p *Proc) node() int { return p.w.nodes[p.rank] }

// Wtime reports the calling rank's virtual clock (MPI_WTIME).
func (p *Proc) Wtime() sim.Time { return p.w.cl.Clock(p.node()) }

// Barrier blocks until every rank has entered (MPI_BARRIER). On
// release, all clocks advance to the latest arrival plus the barrier's
// communication cost, which is booked as communication on every rank.
// Under fault injection a crashed caller, a crashed peer or an expired
// deadline surfaces as an *Error instead of a deadlock.
func (p *Proc) Barrier() error {
	if err := p.barrier(trace.OpBarrier); err != nil {
		return err
	}
	return nil
}

// barrier is the shared barrier body, traced under the caller's op
// name (MPI_BARRIER and MPI_WIN_FENCE synchronize identically but
// profile differently).
func (p *Proc) barrier(op string) *Error {
	w := p.w
	if err := p.enter(op, -1); err != nil {
		return err
	}
	rec, begin := p.traceBegin()
	_, _, err := w.collectiveE(p.rank, op, nil,
		func(maxT sim.Time, _ [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			return maxT + w.barrierCost, nil, w.barrierCost, interconnect.TransportSync
		})
	if err != nil {
		return err
	}
	p.traceEnd(rec, begin, op, -1, 0, 0, interconnect.TransportSync)
	return nil
}

// hops reports mesh distance from this rank's node to target's node.
func (p *Proc) hops(target int) int { return p.w.cl.Hops(p.node(), p.w.nodeOf(target)) }

// localCopyCost is the cost of a rank-local data movement (no NIC):
// call overhead plus a memory copy.
func (p *Proc) localCopyCost(bytes int) sim.Time {
	cpu := p.w.cl.Params().CPU
	return cpu.CallOverhead + sim.Time(bytes)*cpu.MemCopyPerByte
}
