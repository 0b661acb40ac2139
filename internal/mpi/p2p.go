package mpi

import (
	"fmt"
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// mbKey identifies one (source, destination, tag) mailbox.
type mbKey struct {
	src, dst, tag int
}

// pendingSend is a message in flight: the payload, the sending rank
// and tag (the tag lets a deadline-expired receiver push the message
// back unconsumed), and the virtual time at which it has fully landed
// at the destination.
type pendingSend struct {
	data    []float64
	src     int
	tag     int
	readyAt sim.Time
}

// AnyTag matches any tag on the receive side (MPI_ANY_TAG).
const AnyTag = -1

// AnySource matches any source rank on the receive side
// (MPI_ANY_SOURCE).
const AnySource = -1

// Send transmits data to rank dst with the given tag (MPI_SEND). The
// payload is copied; the caller may reuse its buffer immediately. The
// sender is charged the full transfer, so the message's arrival time
// never exceeds the sender's post-call clock. Under fault injection a
// crashed caller or a transfer pushed past the deadline by
// retransmissions surfaces as an *Error, and the message is not
// delivered. Argument validation panics (a programming error, not a
// fault).
func (p *Proc) Send(dst, tag int, data []float64) error {
	w := p.w
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpi: Send to rank %d out of range [0,%d)", dst, w.n))
	}
	if tag < 0 {
		panic(fmt.Sprintf("mpi: Send tag %d must be non-negative", tag))
	}
	if err := p.charge(trace.OpSend, dst, ContigDesc(0, int64(len(data))), false); err != nil {
		return err
	}
	p.post(dst, tag, append([]float64(nil), data...))
	return nil
}

// post delivers a ready message into dst's mailbox, stamped with the
// sender's current clock (all charges, including retransmissions, are
// already booked).
func (p *Proc) post(dst, tag int, data []float64) {
	w := p.w
	item := pendingSend{
		data:    data,
		src:     p.rank,
		tag:     tag,
		readyAt: w.cl.Clock(p.node()),
	}
	w.mu.Lock()
	k := mbKey{src: p.rank, dst: dst, tag: tag}
	w.boxes[k] = append(w.boxes[k], item)
	w.cond.Broadcast()
	w.mu.Unlock()
}

// match pops the first pending message matching (src, dst, tag) with
// wildcards. Caller holds w.mu.
func (w *World) match(src, dst, tag int) (pendingSend, bool) {
	// Deterministic scan order for wildcards: ascending source, then
	// ascending tag, is enforced by scanning ranks and known keys in
	// order.
	for s := 0; s < w.n; s++ {
		if src != AnySource && s != src {
			continue
		}
		if tag != AnyTag {
			if k := (mbKey{src: s, dst: dst, tag: tag}); len(w.boxes[k]) > 0 {
				return w.pop(k), true
			}
			continue
		}
		// AnyTag: find the lowest tag with a pending message from s.
		best := -1
		for k, q := range w.boxes {
			if k.src != s || k.dst != dst || len(q) == 0 {
				continue
			}
			if best == -1 || k.tag < best {
				best = k.tag
			}
		}
		if best >= 0 {
			return w.pop(mbKey{src: s, dst: dst, tag: best}), true
		}
	}
	return pendingSend{}, false
}

// pop takes the first message of mailbox k. A queue that drains keeps
// its backing array for the next message. Caller holds w.mu.
func (w *World) pop(k mbKey) pendingSend {
	q := w.boxes[k]
	if len(q) == 1 {
		w.boxes[k] = q[:0]
	} else {
		w.boxes[k] = q[1:]
	}
	return q[0]
}

// Recv blocks until a matching message arrives and returns its payload
// (MPI_RECV). src may be AnySource and tag may be AnyTag. The
// receiver's clock advances to the message arrival time if it was
// ahead, plus a fixed receive-side processing charge. Under fault
// injection a receive fails with ErrTimeout when no message can land
// within the deadline (the deterministic check compares the matched
// message's virtual arrival time against entry+deadline; an unmatched
// wait is bounded by the wall-clock watchdog), and with ErrPeerCrashed
// when the awaited sender — or, under AnySource, every other rank — is
// down. A message rejected for arriving too late stays queued.
func (p *Proc) Recv(src, tag int) ([]float64, error) {
	w := p.w
	if src != AnySource && (src < 0 || src >= w.n) {
		panic(fmt.Sprintf("mpi: Recv from rank %d out of range", src))
	}
	if err := p.enter(trace.OpRecv, src); err != nil {
		return nil, err
	}
	node := p.node()
	deadline := w.inj.Deadline()
	var entry sim.Time
	var wallStart time.Time
	if deadline > 0 {
		entry = w.cl.Clock(node)
		wallStart = time.Now()
	}
	rec, begin := p.traceBegin()
	w.mu.Lock()
	var item pendingSend
	for {
		var ok bool
		if item, ok = w.match(src, p.rank, tag); ok {
			if deadline > 0 && item.readyAt > entry+deadline {
				// The message exists but lands after the deadline:
				// deterministic timeout. Push it back unconsumed.
				k := mbKey{src: item.src, dst: p.rank, tag: item.tag}
				w.boxes[k] = append([]pendingSend{item}, w.boxes[k]...)
				w.mu.Unlock()
				return nil, &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: entry + deadline}
			}
			break
		}
		if w.revoked.Load() {
			w.mu.Unlock()
			return nil, &Error{Kind: ErrRevoked, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: w.cl.Clock(node)}
		}
		if w.cancelled.Load() {
			w.mu.Unlock()
			return nil, &Error{Kind: ErrCancelled, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: w.cl.Clock(node)}
		}
		if w.nDown > 0 {
			if src != AnySource && w.down[src] {
				w.mu.Unlock()
				return nil, &Error{Kind: ErrPeerCrashed, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: w.cl.Clock(node)}
			}
			if src == AnySource && w.othersDown(p.rank) {
				w.mu.Unlock()
				return nil, &Error{Kind: ErrPeerCrashed, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: w.cl.Clock(node)}
			}
		}
		if deadline > 0 && time.Since(wallStart) > WatchdogWall {
			w.mu.Unlock()
			return nil, &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpRecv, Peer: src, Time: entry + deadline}
		}
		w.cond.Wait()
	}
	w.mu.Unlock()

	// Waiting for the sender shows up as communication-stall time.
	before := w.cl.Clock(node)
	w.cl.AdvanceTo(node, item.readyAt)
	stall := w.cl.Clock(node) - before
	cpu := w.cl.Params().CPU
	w.cl.ChargeComm(node, cpu.CallOverhead, 0)
	w.cl.BookComm(node, stall, 0)
	p.traceEnd(rec, begin, trace.OpRecv, item.src, 0, int64(len(item.data)*WordBytes), interconnect.TransportSync)
	return item.data, nil
}

// Sendrecv performs a combined send and receive (MPI_SENDRECV): the
// send is posted first, then the receive blocks, so exchanging
// neighbors cannot deadlock.
func (p *Proc) Sendrecv(dst, sendTag int, data []float64, src, recvTag int) ([]float64, error) {
	if err := p.Send(dst, sendTag, data); err != nil {
		return nil, err
	}
	return p.Recv(src, recvTag)
}

// SendRegion is the two-sided transfer of an elems-word region: the
// sender is charged packing the region into a message buffer (a
// per-word CPU copy — the cost one-sided DMA avoids) and transmitting
// it, and posts a message that carries no payload. The receiver copies
// the region itself, straight out of the sender's memory, as a
// rendezvous protocol does with a large message.
func (p *Proc) SendRegion(dst, tag, elems int) error {
	w := p.w
	if dst < 0 || dst >= w.n {
		panic(fmt.Sprintf("mpi: SendRegion to rank %d out of range", dst))
	}
	// The payload is an anonymous message buffer: on a protocol-switched
	// fabric its rendezvous path always re-registers and never warms the
	// registration cache.
	if err := p.charge(trace.OpSend, dst, ContigDesc(0, int64(elems)), true); err != nil {
		return err
	}
	p.post(dst, tag, nil)
	return nil
}

// RecvRegion receives a region message sent with SendRegion and
// charges the receiver's unpack copy — the second processor's
// involvement that makes two-sided communication costlier than
// MPI_PUT/MPI_GET ("two processors are needed for
// MPI_SEND/MPI_RECEIVE"). The region's elems words are traced on the
// unpack; the caller copies them.
func (p *Proc) RecvRegion(src, tag, elems int) error {
	if _, err := p.Recv(src, tag); err != nil {
		return err
	}
	rec, begin := p.traceBegin()
	cpu := p.w.cl.Params().CPU
	p.w.cl.ChargeComm(p.node(), sim.Time(elems*WordBytes)*cpu.MemCopyPerByte, 0)
	p.traceEnd(rec, begin, trace.OpUnpack, src, 0, int64(elems*WordBytes), interconnect.TransportLocal)
	return nil
}
