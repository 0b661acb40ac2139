package mpi

// ULFM-style recovery verbs (User-Level Failure Mitigation, the
// fault-tolerance proposal for MPI): Revoke poisons a communicator so
// every rank reaches the recovery path instead of deadlocking, Agree
// is the survivors' fault-tolerant consensus on the failed set, and
// Shrink builds a new communicator over the survivors with contiguous
// re-ranked ids. Checkpoint and Recover price the coordinated
// checkpoint and restore rounds the resilient interpreter drives
// between parallel-region epochs.

import (
	"fmt"
	"sort"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Revoke poisons the communicator (MPI_Comm_revoke): every blocked or
// subsequent operation on it fails with ErrRevoked. A rank that
// observes a failure calls it so its peers stop waiting on messages
// that will never arrive and join the recovery protocol. Revocation
// is idempotent and cannot be undone; recovery builds a new world.
func (w *World) Revoke() {
	w.mu.Lock()
	w.revoked = true
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Revoked reports whether the communicator has been revoked.
func (w *World) Revoked() bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.revoked
}

// Agree is the survivors' consensus on the failed set
// (MPI_Comm_agree): it returns the communicator ranks that genuinely
// crashed — those that raised ErrCrashed, plus any whose virtual
// clock has passed an injected crash time without the rank detecting
// it yet. Ranks that merely departed after observing a peer's failure
// are survivors. The agreement round — one software-tree gather and
// release among the survivors — is charged to every survivor and
// recorded as a trace.OpRecovery interval on the recovery transport.
//
// Agree must be called after the world's rank goroutines have
// stopped (the per-rank clocks are then stable); the resilient
// interpreter calls it from its coordinator between epochs.
func (w *World) Agree() []int {
	w.mu.Lock()
	var failed []int
	for r := 0; r < w.n; r++ {
		node := w.nodes[r]
		crashed := w.crashed[r]
		if !crashed {
			if ct := w.inj.CrashTime(node); ct != sim.MaxTime && w.cl.Clock(node) >= ct {
				crashed = true
			}
		}
		if crashed {
			failed = append(failed, r)
		}
	}
	w.mu.Unlock()
	if len(failed) == 0 {
		return nil
	}
	bad := make(map[int]bool, len(failed))
	for _, r := range failed {
		bad[r] = true
	}
	var survNodes []int
	for r := 0; r < w.n; r++ {
		if !bad[r] {
			survNodes = append(survNodes, w.nodes[r])
		}
	}
	if len(survNodes) == 0 {
		return failed
	}
	// One gather + release over the software p2p tree: the hardware
	// bus cannot be trusted mid-failure, so agreement always takes the
	// degraded path.
	cost := w.cl.Fabric().SendSetup() + w.softwareTreeCost(WordBytes)
	var t sim.Time
	for _, nd := range survNodes {
		if c := w.cl.Clock(nd); c > t {
			t = c
		}
	}
	w.cl.SetSome(survNodes, t+cost)
	rec := w.cl.Recorder()
	for _, nd := range survNodes {
		w.cl.BookComm(nd, cost, 0)
		if rec != nil {
			rec.Add(trace.Event{
				Rank:      nd,
				Op:        trace.OpRecovery,
				Peer:      -1,
				Payload:   WordBytes,
				Transport: interconnect.TransportRecovery,
				Begin:     t,
				End:       t + cost,
			})
		}
	}
	return failed
}

// Shrink builds the recovered communicator (MPI_Comm_shrink): a new
// world over the surviving nodes with contiguous ranks in ascending
// node order. failed lists this world's failed ranks (Agree's
// result). The old world should be Shutdown first; windows and
// in-flight messages do not carry over — the caller restores state
// from the last checkpoint. Shrinking to zero survivors is an error.
func (w *World) Shrink(failed []int) (*World, error) {
	bad := make(map[int]bool, len(failed))
	for _, r := range failed {
		if r < 0 || r >= w.n {
			return nil, fmt.Errorf("mpi: Shrink failed rank %d out of range [0,%d)", r, w.n)
		}
		bad[r] = true
	}
	var nodes []int
	for r := 0; r < w.n; r++ {
		if !bad[r] {
			nodes = append(nodes, w.nodes[r])
		}
	}
	if len(nodes) == 0 {
		return nil, fmt.Errorf("mpi: Shrink left no survivors")
	}
	sort.Ints(nodes)
	return NewWorldOver(w.cl, nodes), nil
}

// Checkpoint is the coordinated checkpoint round: a Chandy-Lamport
// style quiesce — the collective rendezvous fences every window and
// drains in-flight messages, exactly like a barrier — after which
// rank 0 streams the serialized snapshot (bytes long; other ranks
// pass 0) to stable storage over the contiguous path. The whole round
// is charged to every rank as one trace.OpCheckpoint interval on the
// ckpt transport, so profiles show the true cost of the cadence.
func (p *Proc) Checkpoint(bytes int) error {
	w := p.w
	if err := p.enter(trace.OpCheckpoint, -1); err != nil {
		return err
	}
	var contrib []float64
	if p.rank == 0 {
		contrib = []float64{float64(bytes)}
	}
	card := w.cl.Fabric()
	rec, begin := p.traceBegin()
	_, tr, err := w.collectiveE(p.rank, trace.OpCheckpoint, contrib,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			size := 0
			if len(vals[0]) > 0 {
				size = int(vals[0][0])
			}
			cost := w.barrierCost + card.SendSetup() + card.ContigTime(size, 1)
			return maxT + cost, nil, cost, interconnect.TransportCkpt
		})
	if err != nil {
		return err
	}
	p.traceEnd(rec, begin, trace.OpCheckpoint, -1, 0, int64(bytes), tr)
	return nil
}

// Recover is the checkpoint-restore round on a recovered world: rank
// 0 reads the snapshot (bytes long; other ranks pass 0) back from
// stable storage and rebroadcasts the restored state to the
// survivors over the software tree (the degraded broadcast path —
// the communicator no longer matches the physical bus). Charged to
// every rank as one trace.OpRecovery interval on the recovery
// transport.
func (p *Proc) Recover(bytes int) error {
	w := p.w
	if err := p.enter(trace.OpRecovery, -1); err != nil {
		return err
	}
	var contrib []float64
	if p.rank == 0 {
		contrib = []float64{float64(bytes)}
	}
	card := w.cl.Fabric()
	rec, begin := p.traceBegin()
	_, tr, err := w.collectiveE(p.rank, trace.OpRecovery, contrib,
		func(maxT sim.Time, vals [][]float64) (sim.Time, []float64, sim.Time, interconnect.Transport) {
			size := 0
			if len(vals[0]) > 0 {
				size = int(vals[0][0])
			}
			cost := card.SendSetup() + card.ContigTime(size, 1) + w.softwareTreeCost(size)
			return maxT + cost, nil, cost, interconnect.TransportRecovery
		})
	if err != nil {
		return err
	}
	p.traceEnd(rec, begin, trace.OpRecovery, -1, 0, int64(bytes), tr)
	return nil
}
