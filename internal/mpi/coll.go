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

// collSlot carries one in-flight collective's contributions and result
// across the rendezvous generation.
type collSlot struct {
	vals      [][]float64
	result    []float64
	commCost  sim.Time
	transport interconnect.Transport
	remaining int
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
// Under fault injection the rendezvous can fail instead of blocking
// forever: a crashed or departed rank fails every waiter with
// ErrPeerCrashed, and with a deadline set, a waiter stuck past the
// wall-clock watchdog fails with ErrTimeout. A failed collective
// poisons the world — the run is over, only error propagation remains.
func (w *World) collectiveE(rank int, op string, contrib []float64,
	finish func(maxT sim.Time, vals [][]float64) (release sim.Time, result []float64, commCost sim.Time, tr interconnect.Transport)) ([]float64, interconnect.Transport, *Error) {

	node := w.nodes[rank]
	if w.n == 1 {
		release, result, commCost, tr := finish(w.cl.Clock(node), [][]float64{contrib})
		w.cl.SetSome(w.nodes, release)
		w.cl.BookComm(node, commCost, 0)
		return result, tr, nil
	}
	deadline := w.inj.Deadline()
	var entry sim.Time
	var wallStart time.Time
	if deadline > 0 {
		entry = w.cl.Clock(node)
		wallStart = time.Now()
	}
	w.mu.Lock()
	if w.nDown > 0 {
		w.mu.Unlock()
		return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
	}
	gen := w.gen
	slot, ok := w.slots[gen]
	if !ok {
		slot = &collSlot{remaining: w.n}
		w.slots[gen] = slot
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
	if t := w.cl.Clock(node); t > w.maxT {
		w.maxT = t
	}
	w.arrived++
	if w.arrived == w.n {
		vals := slot.vals
		if vals == nil {
			vals = w.noVals
		}
		release, result, commCost, tr := finish(w.maxT, vals)
		slot.result = result
		slot.commCost = commCost
		slot.transport = tr
		w.cl.SetSome(w.nodes, release)
		w.arrived = 0
		w.maxT = 0
		w.gen++
		w.cond.Broadcast()
	} else {
		for gen == w.gen {
			if w.revoked {
				w.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrRevoked, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if w.cancelled.Load() {
				w.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrCancelled, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if w.nDown > 0 {
				w.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrPeerCrashed, Rank: rank, Op: op, Peer: -1, Time: w.cl.Clock(node)}
			}
			if deadline > 0 && time.Since(wallStart) > WatchdogWall {
				w.arrived--
				w.mu.Unlock()
				return nil, 0, &Error{Kind: ErrTimeout, Rank: rank, Op: op, Peer: -1, Time: entry + deadline}
			}
			w.cond.Wait()
		}
	}
	res := slot.result
	cost := slot.commCost
	tr := slot.transport
	slot.remaining--
	if slot.remaining == 0 {
		delete(w.slots, gen)
	}
	w.mu.Unlock()
	w.cl.BookComm(node, cost, 0)
	return res, tr, nil
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
	card := w.cl.Fabric()
	var contrib []float64
	if p.rank == root {
		contrib = data
	}
	rec, begin := p.traceBegin()
	res, tr, cerr := w.collectiveE(p.rank, trace.OpBcast, contrib,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			payload := vals[root]
			bcost, btr := w.broadcastCost(len(payload)*WordBytes, maxT+card.SendSetup())
			cost := card.SendSetup() + bcost
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

// reduceCost models a binomial gather tree of vector messages.
func (w *World) reduceCost(elems int) sim.Time {
	card := w.cl.Fabric()
	stages := 0
	for p := 1; p < w.n; p *= 2 {
		stages++
	}
	return sim.Time(stages) * (card.SendSetup() + card.ContigTime(elems*WordBytes, 1))
}

// Reduce combines each rank's vector element-wise with op; the combined
// vector is returned on root, nil elsewhere (MPI_REDUCE). Under fault
// injection a failed rendezvous returns the *Error. Root-range and
// length-mismatch violations are programming errors and panic.
func (p *Proc) Reduce(op Op, root int, data []float64) ([]float64, error) {
	w := p.w
	if root < 0 || root >= w.n {
		panic(fmt.Sprintf("mpi: Reduce root %d out of range", root))
	}
	if err := p.enter(trace.OpReduce, root); err != nil {
		return nil, err
	}
	rec, begin := p.traceBegin()
	res, _, cerr := w.collectiveE(p.rank, trace.OpReduce, data,
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
			cost := w.reduceCost(len(out))
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
	res, tr, cerr := w.collectiveE(p.rank, trace.OpAllreduce, data,
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
			rcost := w.reduceCost(len(out))
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
