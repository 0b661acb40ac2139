package mpi

import (
	"fmt"
	"math"
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
	// done is closed by the generation's release, or early by
	// World.wake so parked waiters re-check the abort conditions.
	done chan struct{}
}

// collectiveE is the shared rendezvous: every rank contributes, the
// last arrival runs finish (which sees all contributions and the
// latest clock) to compute the released clock, the shared result, the
// per-rank comm cost to book, and the transport class the collective
// actually used (carried through the slot so every rank traces the
// same class — under fault injection a broadcast may degrade from the
// hardware bus to the software tree). All ranks return the shared
// result.
//
// The release is one step: the last arrival lifts every member's
// clock and books the cost, as ops communication operations, on every
// member in one cluster critical section, then closes the generation's
// channel. Waiters block on a
// plain receive and read the result from their slot without taking
// w.mu again.
//
// Under fault injection the rendezvous can fail instead of blocking
// forever: a crashed or departed rank fails every waiter with
// ErrPeerCrashed, and with a deadline set, a waiter stuck past the
// wall-clock watchdog fails with ErrTimeout. A failed collective
// poisons the world — the run is over, only error propagation remains.
func (w *World) collectiveE(rank int, op string, ops int64, contrib []float64,
	finish func(maxT sim.Time, vals [][]float64) (release sim.Time, result []float64, commCost sim.Time, tr interconnect.Transport)) ([]float64, interconnect.Transport, *Error) {

	node := w.nodes[rank]
	// Only this rank moves its own clock before it arrives, so the
	// clock is read outside w.mu: no cluster lock nests in the world's
	// on arrival.
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
	w.mu.Lock()
	if w.nDown > 0 {
		w.mu.Unlock()
		return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: now}
	}
	gen := w.gen.Load()
	slot := &w.coll[gen&1]
	if w.arrived == 0 {
		slot.done = make(chan struct{})
	}
	if contrib != nil {
		// A barrier contributes nothing and never pays for the P-entry
		// table; the last arrival then sees the world's shared all-nil
		// one.
		if slot.vals == nil {
			slot.vals = make([][]float64, w.n)
		}
		slot.vals[rank] = contrib
	}
	w.maxT = max(w.maxT, now)
	w.arrived++
	if w.arrived == w.n {
		vals := slot.vals
		if vals == nil {
			vals = w.noVals
		}
		release, result, commCost, tr := finish(w.maxT, vals)
		w.cl.Release(w.nodes, release, commCost, ops)
		slot.vals, slot.result, slot.transport = nil, result, tr
		w.arrived = 0
		w.maxT = 0
		w.gen.Store(gen + 1)
		close(slot.done)
		w.mu.Unlock()
		return result, tr, nil
	}
	// Parked: the abort conditions are re-checked under w.mu on arrival
	// and after every wake that did not release this generation.
	for w.gen.Load() == gen {
		var kind ErrorKind
		at := now
		switch {
		case w.revoked:
			kind = ErrRevoked
		case w.cancelled.Load():
			kind = ErrCancelled
		case w.nDown > 0:
			kind = ErrPeerCrashed
		case deadline > 0 && time.Since(wallStart) > WatchdogWall:
			kind, at = ErrTimeout, now+deadline
		default:
			done := slot.done
			w.mu.Unlock()
			<-done
			if w.gen.Load() != gen {
				return slot.result, slot.transport, nil
			}
			w.mu.Lock()
			continue
		}
		w.arrived--
		w.mu.Unlock()
		return nil, 0, &Error{Kind: kind, Rank: rank, Op: op, Peer: -1, Time: at}
	}
	w.mu.Unlock()
	return slot.result, slot.transport, nil
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
			payload := vals[root]
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
			out := append([]float64(nil), vals[0]...)
			for r := 1; r < w.n; r++ {
				v := vals[r]
				if len(v) != len(out) {
					panic(fmt.Sprintf("mpi: Reduce length mismatch: rank 0 has %d, rank %d has %d", len(out), r, len(v)))
				}
				for i := range out {
					out[i] = op.apply(out[i], v[i])
				}
			}
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
			out := append([]float64(nil), vals[0]...)
			for r := 1; r < w.n; r++ {
				v := vals[r]
				if len(v) != len(out) {
					panic(fmt.Sprintf("mpi: Allreduce length mismatch: rank 0 has %d, rank %d has %d", len(out), r, len(v)))
				}
				for i := range out {
					out[i] = op.apply(out[i], v[i])
				}
			}
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
