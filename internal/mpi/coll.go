package mpi

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Op is a reduction operator (the MPI_SUM/MPI_MAX/... constants).
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Prod
	Max
	Min
)

func (o Op) apply(a, b float64) float64 {
	switch o {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Max:
		return math.Max(a, b)
	case Min:
		return math.Min(a, b)
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(o)))
	}
}

// fold combines every rank's vector element-wise; no contribution at
// all (vals nil) folds to nil. A length mismatch is a programming error
// of the collective named name and panics.
func (o Op) fold(name string, vals [][]float64) []float64 {
	if vals == nil {
		return nil
	}
	out := append([]float64(nil), vals[0]...)
	for r, v := range vals[1:] {
		if len(v) != len(out) {
			panic(fmt.Sprintf("mpi: %s length mismatch: rank 0 has %d, rank %d has %d", name, len(out), r+1, len(v)))
		}
		for i := range out {
			out[i] = o.apply(out[i], v[i])
		}
	}
	return out
}

// collSlot carries one collective generation's contributions and
// result across the rendezvous. World.coll holds two that alternate
// (gen&1): the arrivals at generation g+1 fill one while generation
// g's released waiters may still be reading the other. A rank enters
// g+1 only after it has left g, so by the time g+2 reuses g's slot
// every reader of it is gone.
type collSlot struct {
	vals      [][]float64
	result    []float64
	transport interconnect.Transport
	// done holds the generation's channel (a chan struct{}; an
	// atomic.Value keeps it in the interface word, so swapping it
	// allocates nothing more). It is stored by the previous release,
	// closed by this one, or closed and replaced by World.wake so
	// parked waiters re-check the abort conditions.
	done atomic.Value
}

// collectiveE is the shared rendezvous: every rank contributes, the
// last arrival runs finish (which sees all contributions, nil when no
// rank contributed, and the latest clock) to compute the released clock, the shared result, the
// per-rank comm cost to book, and the transport class the collective
// actually used (carried through the slot so every rank traces the
// same class — under fault injection a broadcast may degrade from the
// hardware bus to the software tree). All ranks return the shared
// result.
//
// Arrival takes no lock: a rank raises maxT to its clock and counts
// itself in with atomics (only a contribution is stored under w.mu).
// The last arrival takes w.mu once for the generation: it lifts every
// member's clock and books the cost, as ops communication operations,
// on every member — each member is parked, so the releaser is its
// node's one writer — then stores the next slot's channel, advances
// gen and closes this one. Waiters block on a plain receive and read
// the result from their slot.
//
// Under fault injection the rendezvous can fail instead of blocking
// forever: a crashed or departed rank fails every waiter with
// ErrPeerCrashed, and with a deadline set, a waiter stuck past the
// wall-clock watchdog fails with ErrTimeout. A failed collective
// poisons the world — the run is over, only error propagation remains.
func (w *World) collectiveE(rank int, op string, ops int64, contrib []float64,
	finish func(maxT sim.Time, vals [][]float64) (release sim.Time, result []float64, commCost sim.Time, tr interconnect.Transport)) ([]float64, interconnect.Transport, *Error) {

	node := w.nodes[rank]
	// Only this rank moves its own clock before it arrives.
	now := w.cl.Clock(node)
	if w.n == 1 {
		release, result, commCost, tr := finish(now, [][]float64{contrib})
		w.cl.Release(w.nodes, release, commCost, ops)
		return result, tr, nil
	}
	deadline := w.inj.Deadline()
	var wallStart time.Time
	if deadline > 0 {
		wallStart = time.Now()
	}
	if w.downSeen.Load() {
		return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: now}
	}
	gen := w.gen.Load()
	slot := &w.coll[gen&1]
	if contrib != nil {
		// A barrier contributes nothing and never pays for the P-entry
		// table: finish then sees nil.
		w.mu.Lock()
		if slot.vals == nil {
			slot.vals = make([][]float64, w.n)
		}
		slot.vals[rank] = contrib
		w.mu.Unlock()
	}
	for t := w.maxT.Load(); int64(now) > t; t = w.maxT.Load() {
		if w.maxT.CompareAndSwap(t, int64(now)) {
			break
		}
	}
	if w.arrived.Add(1) == int64(w.n) {
		w.mu.Lock()
		release, result, commCost, tr := finish(sim.Time(w.maxT.Load()), slot.vals)
		w.cl.Release(w.nodes, release, commCost, ops)
		slot.vals, slot.result, slot.transport = nil, result, tr
		w.arrived.Store(0)
		w.maxT.Store(0)
		w.coll[(gen+1)&1].done.Store(make(chan struct{}))
		w.gen.Store(gen + 1)
		close(slot.done.Load().(chan struct{}))
		w.mu.Unlock()
		return result, tr, nil
	}
	// Parked. The channel is loaded before the checks: a release or a
	// wake after them closes it.
	for {
		done := slot.done.Load().(chan struct{})
		if w.gen.Load() != gen {
			return slot.result, slot.transport, nil
		}
		var kind ErrorKind
		at := now
		switch {
		case w.revoked.Load():
			kind = ErrRevoked
		case w.cancelled.Load():
			kind = ErrCancelled
		case w.downSeen.Load():
			kind = ErrPeerCrashed
		case deadline > 0 && time.Since(wallStart) > WatchdogWall:
			kind, at = ErrTimeout, now+deadline
		default:
			<-done
			continue
		}
		if w.withdraw(gen) {
			return nil, 0, &Error{Kind: kind, Rank: rank, Op: op, Peer: -1, Time: at}
		}
		<-done
	}
}

// withdraw counts an aborting waiter of generation gen back out, unless
// the generation has been released or its last rank has counted itself
// in: then the release is committed and the waiter takes it.
func (w *World) withdraw(gen uint64) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.gen.Load() != gen {
		return false
	}
	for {
		a := w.arrived.Load()
		if a == int64(w.n) {
			return false
		}
		if w.arrived.CompareAndSwap(a, a-1) {
			return true
		}
	}
}

// Bcast broadcasts root's data to every rank (MPI_BCAST), using the
// V-Bus hardware broadcast facility of the card: one bus construction,
// one stream, every node listens — rather than a log2(P) software tree.
// Every rank receives its own copy; root's input is not aliased. A
// broadcast stalled by link outages past the injected per-operation
// deadline fails with ErrTimeout whose Time is the virtual time of
// detection — the instant the deadline expired, not the later clock at
// which the stalled operation would have finished.
func (p *Proc) Bcast(root int, data []float64) ([]float64, error) {
	w := p.w
	if root < 0 || root >= w.n {
		panic(fmt.Sprintf("mpi: Bcast root %d out of range", root))
	}
	if err := p.enter(trace.OpBcast, root); err != nil {
		return nil, err
	}
	entry := p.entryClock()
	setup := w.cl.CommCost().Setup()
	var contrib []float64
	if p.rank == root {
		contrib = data
	}
	rec, begin := p.traceBegin()
	res, tr, cerr := w.collectiveE(p.rank, trace.OpBcast, 1, contrib,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			var payload []float64
			if vals != nil {
				payload = vals[root]
			}
			bcost, btr := w.broadcastCost(len(payload)*WordBytes, maxT+setup)
			cost := setup + bcost
			return maxT + cost, append([]float64(nil), payload...), cost, btr
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpBcast, root, 0, int64(len(res)*WordBytes), tr)
	if d := w.inj.Deadline(); d > 0 && w.cl.Clock(p.node())-entry > d {
		return nil, &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpBcast, Peer: root, Time: entry + d}
	}
	return append([]float64(nil), res...), nil
}

// Reduce combines each rank's vector element-wise with op over a
// binomial gather tree; the combined vector is returned on root, nil
// elsewhere (MPI_REDUCE). Under fault injection a failed rendezvous
// returns the *Error. Root-range and length-mismatch violations are
// programming errors and panic.
func (p *Proc) Reduce(op Op, root int, data []float64) ([]float64, error) {
	w := p.w
	if root < 0 || root >= w.n {
		panic(fmt.Sprintf("mpi: Reduce root %d out of range", root))
	}
	if err := p.enter(trace.OpReduce, root); err != nil {
		return nil, err
	}
	rec, begin := p.traceBegin()
	res, _, cerr := w.collectiveE(p.rank, trace.OpReduce, 1, data,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			out := op.fold("Reduce", vals)
			cost := w.cl.CommCost().Tree(len(out)*WordBytes, w.n)
			return maxT + cost, out, cost, interconnect.TransportP2P
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpReduce, root, 0, int64(len(data)*WordBytes), interconnect.TransportP2P)
	if p.rank != root {
		return nil, nil
	}
	return append([]float64(nil), res...), nil
}

// Allreduce is Reduce followed by a V-Bus broadcast of the result;
// every rank receives the combined vector (MPI_ALLREDUCE). Under fault
// injection a failed rendezvous returns the *Error. Length-mismatch
// violations are programming errors and panic.
func (p *Proc) Allreduce(op Op, data []float64) ([]float64, error) {
	w := p.w
	if err := p.enter(trace.OpAllreduce, -1); err != nil {
		return nil, err
	}
	rec, begin := p.traceBegin()
	res, tr, cerr := w.collectiveE(p.rank, trace.OpAllreduce, 1, data,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			out := op.fold("Allreduce", vals)
			rcost := w.cl.CommCost().Tree(len(out)*WordBytes, w.n)
			bcost, btr := w.broadcastCost(len(out)*WordBytes, maxT+rcost)
			cost := rcost + bcost
			return maxT + cost, out, cost, btr
		})
	if cerr != nil {
		return nil, cerr
	}
	p.traceEnd(rec, begin, trace.OpAllreduce, -1, 0, int64(len(data)*WordBytes), tr)
	return append([]float64(nil), res...), nil
}
