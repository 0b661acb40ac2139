package mpi

// Fault-handling glue for the MPI runtime. With no injector attached
// (the default) every function here is a nil check and the runtime's
// charges, traces and data movement are bit-identical to a build
// without the fault layer.
//
// The reliability protocol (per-packet CRC + ACK/NACK go-back-N
// retransmission, priced by nic.ReliableCost) guarantees payload
// delivery; its cost is charged to the sending rank as a separate
// trace.OpRetry interval on the retry transport class, so profiles
// show exactly what the faulty fabric cost. Link outages stall the
// sender until the routing path recovers. Crashed ranks and expired
// deadlines surface as structured *Error values instead of
// deadlocking the goroutine-per-rank runtime.

import (
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// WatchdogWall is the wall-clock escape hatch for deadline-carrying
// operations blocked on a peer that will never show up (the virtual
// clock of a blocked rank does not advance, so a wall timer is the
// only way out). The reported Error still carries the deterministic
// virtual deadline. Tests shrink this.
var WatchdogWall = 3 * time.Second

// watchdogTick is how often the watchdog goroutine wakes blocked
// waiters to re-check their deadlines.
const watchdogTick = 25 * time.Millisecond

// busAcquireAttempts is how many times a broadcast retries virtual-bus
// acquisition before degrading to the software p2p tree.
const busAcquireAttempts = 3

// Shutdown stops the world's deadline watchdog, if one is running.
// Call it when the run completes; it is safe to call on any world.
func (w *World) Shutdown() {
	if w.watchStop != nil {
		close(w.watchStop)
		w.watchStop = nil
	}
}

// startWatchdog spawns the broadcast ticker that lets deadline-blocked
// waiters re-check wall time. Only started when the spec sets a
// deadline.
func (w *World) startWatchdog() {
	w.watchStop = make(chan struct{})
	stop := w.watchStop
	go func() {
		t := time.NewTicker(watchdogTick)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.mu.Lock()
				w.cond.Broadcast()
				w.mu.Unlock()
			}
		}
	}()
}

// Cancel aborts the run from outside the simulation: every subsequent
// operation — and every operation currently blocked in a rendezvous,
// receive wait or lock acquisition — fails with ErrCancelled so the
// rank goroutines unwind promptly instead of leaking a running
// cluster. Idempotent and safe to call from any goroutine (the
// interpreter's context monitor calls it when a job deadline expires).
func (w *World) Cancel() {
	if w.cancelled.CompareAndSwap(false, true) {
		close(w.cancelCh)
		w.mu.Lock()
		w.cond.Broadcast()
		w.mu.Unlock()
	}
}

// Cancelled reports whether the run has been aborted with Cancel.
func (w *World) Cancelled() bool { return w.cancelled.Load() }

// cancelErr builds the structured failure for an operation abandoned
// after Cancel.
func (p *Proc) cancelErr(op string, peer int) *Error {
	return &Error{Kind: ErrCancelled, Rank: p.rank, Op: op, Peer: peer, Time: p.w.cl.Clock(p.node())}
}

// noteDown marks rank as crashed/departed and wakes every blocked
// waiter so operations depending on it can fail instead of hanging.
func (w *World) noteDown(rank int) {
	w.mu.Lock()
	if !w.down[rank] {
		w.down[rank] = true
		w.nDown++
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// noteCrashed marks rank as genuinely failed (not just departed); the
// recovery protocol's Agree round excludes exactly these ranks.
func (w *World) noteCrashed(rank int) {
	w.mu.Lock()
	w.crashed[rank] = true
	if !w.down[rank] {
		w.down[rank] = true
		w.nDown++
	}
	w.cond.Broadcast()
	w.mu.Unlock()
}

// Depart marks rank as gone (used by the interpreter when a rank's
// goroutine exits on an error): peers blocked on it observe a
// peer-crashed failure rather than a deadlock.
func (w *World) Depart(rank int) {
	if rank >= 0 && rank < w.n {
		w.noteDown(rank)
	}
}

// enter is the per-operation liveness check: a rank whose virtual
// clock has passed its injected crash time — or whose operation count
// has exceeded its crashafter budget — fails every subsequent
// operation with ErrCrashed (and is announced to its peers). On a
// revoked communicator every operation fails with ErrRevoked instead.
func (p *Proc) enter(op string, peer int) *Error {
	w := p.w
	if w.cancelled.Load() {
		return p.cancelErr(op, peer)
	}
	if w.inj == nil {
		return nil
	}
	node := p.node()
	if w.Revoked() {
		return &Error{Kind: ErrRevoked, Rank: p.rank, Op: op, Peer: peer, Time: w.cl.Clock(node)}
	}
	if ct := w.inj.CrashTime(node); ct != sim.MaxTime && w.cl.Clock(node) >= ct {
		w.noteCrashed(p.rank)
		return &Error{Kind: ErrCrashed, Rank: p.rank, Op: op, Peer: peer, Time: ct}
	}
	if w.inj.HasCrashAfter() {
		if limit := w.inj.CrashAfterOps(node); limit >= 0 {
			if w.cl.BumpOps(node) > limit {
				w.noteCrashed(p.rank)
				// Error.Time is the virtual time of detection: the
				// clock at the entry of the first operation past the
				// budget.
				return &Error{Kind: ErrCrashed, Rank: p.rank, Op: op, Peer: peer, Time: w.cl.Clock(node)}
			}
		}
	}
	return nil
}

// takeSeq hands out the per-(src,dst) packet sequence numbers for a
// transfer of bytes. Each element is written only by the sending
// rank's goroutine, so the counters are race-free and — because every
// rank issues its sends in deterministic program order — independent
// of goroutine interleaving.
func (w *World) takeSeq(src, dst, bytes int) int {
	mtu := w.inj.MTU()
	npkts := (bytes + mtu - 1) / mtu
	i := src*w.n + dst
	s := w.pktSeq[i]
	w.pktSeq[i] += npkts
	return s
}

// chargeReliability prices everything the faulty fabric costs a remote
// transfer of bytes to peer beyond the clean base charge: a stall
// until the routing path's injected outages end, then the go-back-N
// retransmission overhead. The total is charged to the calling rank
// and recorded as one adjacent trace.OpRetry interval (zero accounted
// bytes, so byte reconciliation with the clean accounting holds;
// Payload carries the re-sent wire bytes). entry is the operation's
// entry clock: with a deadline set, an operation whose faults push it
// past entry+deadline fails with ErrTimeout — the caller must not
// deliver its payload in that case.
func (p *Proc) chargeReliability(op string, peer, bytes int, entry sim.Time) *Error {
	w := p.w
	if !w.inj.Enabled() || peer == p.rank || bytes <= 0 {
		return nil
	}
	node, peerNode := p.node(), w.nodeOf(peer)
	var stall sim.Time
	now := w.cl.Clock(node)
	if w.inj.HasLinkDowns() {
		path := w.cl.Geometry().Path(node, peerNode)
		for {
			until := w.inj.PathDownUntil(path, now+stall)
			if until <= now+stall {
				break
			}
			stall = until - now
		}
	}
	out, _ := nic.ReliableCost(w.cl.Fabric(), w.inj, w.cl.CommCost().Msg(WordBytes, 1), node, peerNode,
		w.cl.Hops(node, peerNode), bytes, w.takeSeq(p.rank, peer, bytes))
	extra := stall + out.Extra
	if extra > 0 {
		rec, begin := p.traceBegin()
		w.cl.ChargeComm(node, extra, 0)
		p.traceEnd(rec, begin, trace.OpRetry, peer, 0, out.RetransBytes, interconnect.TransportRetry)
	}
	if d := w.inj.Deadline(); d > 0 && w.cl.Clock(node)-entry > d {
		return &Error{Kind: ErrTimeout, Rank: p.rank, Op: op, Peer: peer, Time: entry + d}
	}
	return nil
}

// entryClock reads the calling rank's clock when fault handling needs
// it (deadlines, retries); zero-fault runs skip the read entirely.
func (p *Proc) entryClock() sim.Time {
	if !p.w.inj.Enabled() {
		return 0
	}
	return p.w.cl.Clock(p.node())
}

// othersDown reports (holding w.mu) whether every rank except rank is
// down — the point where an AnySource receive can never match.
func (w *World) othersDown(rank int) bool {
	if w.nDown < w.n-1 {
		return false
	}
	for r := 0; r < w.n; r++ {
		if r != rank && !w.down[r] {
			return false
		}
	}
	return true
}

// broadcastCost prices a size-bytes broadcast starting at virtual
// time at under fault injection: a link outage anywhere in the mesh
// stalls bus construction until the link recovers (the virtual bus is
// built from the physical links), each failed virtual-bus acquisition
// costs one bus timeout, and after busAcquireAttempts failures the
// root degrades to the kernel's software p2p Tree. Returns the cost and
// the transport class actually used. Must be called with w.mu held (it
// consumes the deterministic broadcast sequence number).
func (w *World) broadcastCost(bytes int, at sim.Time) (sim.Time, interconnect.Transport) {
	k := w.cl.CommCost()
	if w.n < w.cl.N() {
		// Degraded mode: a shrunken communicator's membership no
		// longer matches the physical bus, so the hardware broadcast
		// (whose address decode is wired to all-nodes membership)
		// falls back to the software p2p tree among the survivors.
		return k.Tree(bytes, w.n), interconnect.TransportP2P
	}
	var stall sim.Time
	if w.inj.HasLinkDowns() {
		for {
			until := w.inj.AnyLinkDownUntil(at + stall)
			if until <= at+stall {
				break
			}
			stall = until - at
		}
	}
	if !w.inj.Enabled() || !w.cl.Fabric().Caps().HardwareBroadcast || w.inj.Spec().BusFail <= 0 {
		return stall + k.Bcast(bytes, w.n), interconnect.TransportBcast
	}
	seq := w.bcastSeq
	w.bcastSeq++
	cost := stall
	for attempt := 0; attempt < busAcquireAttempts; attempt++ {
		if !w.inj.BusAcquireFail(seq, attempt) {
			return cost + k.Bcast(bytes, w.n), interconnect.TransportBcast
		}
		cost += w.inj.BusTimeout()
	}
	// Bus never acquired: degrade gracefully to the software tree.
	return cost + k.Tree(bytes, w.n), interconnect.TransportP2P
}
