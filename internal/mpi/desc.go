package mpi

// The one-sided API: Put, Get, Accumulate and the charge-only Charge
// each take an LMAD-backed AccessDesc, so contiguous (DMA), strided
// (programmed I/O) and packed (pack → contiguous DMA burst → unpack)
// transfers share one entry point per verb, one validation site, one
// fault/retry path and one charge site (charge, which two-sided sends
// share). What a transfer costs and which path it rides is decided by
// internal/commcost, not here. The origin buffer of every verb is laid
// out like the window, element d.Offset+i·d.Stride on both sides, so
// data moves between array and window with no staging copy.

import (
	"fmt"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// AccessDesc describes one one-sided access region in the target
// window; see commcost.Access for the fields.
type AccessDesc = commcost.Access

// ContigDesc describes a contiguous run of elems elements at offset.
func ContigDesc(offset, elems int64) AccessDesc {
	return AccessDesc{Offset: offset, Elems: elems, Stride: 1}
}

// StridedDesc describes elems elements at offset, stride apart.
func StridedDesc(offset, elems, stride int64) AccessDesc {
	return AccessDesc{Offset: offset, Elems: elems, Stride: stride}
}

// Must panics with err when it is non-nil. Rank bodies that treat a
// failed operation as fatal wrap the error-returning verbs in it: the
// panic value is the operation's *Error, which the interpreter's
// per-rank recover turns back into the run's error.
func Must(err error) {
	if err != nil {
		panic(err)
	}
}

// accessOp names the trace operation of a one-sided access: "put" or
// "get" for contiguous runs, "put.p"/"get.p" for packed strided bursts
// (remote targets only — a rank-local copy involves no NIC, so packing
// is meaningless and the access traces as plain strided),
// "put.s"/"get.s" otherwise.
func accessOp(get, local bool, d AccessDesc) string {
	switch {
	case d.Contig() && get:
		return trace.OpGet
	case d.Contig():
		return trace.OpPut
	case d.Packed && !local && get:
		return trace.OpGetPacked
	case d.Packed && !local:
		return trace.OpPutPacked
	case get:
		return trace.OpGetStride
	default:
		return trace.OpPutStride
	}
}

// validateAccess is the single validation site of the one-sided layer
// (argument errors panic: they are programming errors, not faults —
// the same rule Send documents). name is the public entry point. With
// a window (nil for the charge-only path) it returns the target window
// buffer, having checked that d lies inside it and inside origin. A
// target exposing no region is a state of the run: ErrNoRegion.
func (p *Proc) validateAccess(name string, win *Win, target int, d AccessDesc, origin []float64) ([]float64, *Error) {
	if d.Stride <= 0 {
		panic(fmt.Sprintf("mpi: %s stride %d must be positive", name, d.Stride))
	}
	if d.Elems < 0 {
		panic(fmt.Sprintf("mpi: %s element count %d must be non-negative", name, d.Elems))
	}
	if win == nil {
		return nil, nil
	}
	buf := win.target(target)
	if buf == nil {
		return nil, &Error{Kind: ErrNoRegion, Rank: p.rank, Op: name, Peer: target, Win: win.name, Time: p.Wtime()}
	}
	inBounds(name, win, target, d, len(buf))
	inBounds(name, nil, target, d, len(origin))
	return buf, nil
}

// inBounds panics unless every element d describes indexes a buffer of
// size elements: target's region of win, or the origin with win nil.
func inBounds(name string, win *Win, target int, d AccessDesc, size int) {
	last := d.Offset + (d.Elems-1)*d.Stride
	if d.Elems == 0 || d.Offset >= 0 && last < int64(size) {
		return
	}
	where, what := "origin", "buffer"
	if win != nil {
		where, what = fmt.Sprintf("%q rank %d", win.name, target), "window"
	}
	if d.Stride == 1 {
		panic(fmt.Sprintf("mpi: %s %s [%d,%d) outside %s size %d", name, where, d.Offset, last+1, what, size))
	}
	panic(fmt.Sprintf("mpi: %s %s last index %d outside %s size %d", name, where, last, what, size))
}

// copyRegion is the one element copy of the one-sided layer: it copies
// the elements d describes from origin into the window buffer buf, or
// with get set from buf into origin, at the same indices on both sides.
func copyRegion(buf, origin []float64, d AccessDesc, get bool) {
	dst, src := buf, origin
	if get {
		dst, src = origin, buf
	}
	if d.Stride == 1 {
		copy(dst[d.Offset:d.Offset+d.Elems], src[d.Offset:])
		return
	}
	for i, x := int64(0), d.Offset; i < d.Elems; i, x = i+1, x+d.Stride {
		dst[x] = src[x]
	}
}

// charge is the single charge site of the data-moving operations —
// PUT, GET, ACCUMULATE, the charge-only verb and two-sided sends. It
// charges the origin rank for moving the described region to/from
// target: a rank-local access costs a memory copy; a remote one costs
// what the machine's commcost kernel prices it at given the origin
// node's live registration cache, traced on the transport class the
// kernel names. A two-sided message (op is trace.OpSend) is never a
// one-sided DMA, so on a classic fabric it traces as a p2p message;
// msgPack adds SendRegion's per-byte copy of the region into its
// message buffer (booked as communication inside the same traced
// interval: it exists only to feed the send). Under fault injection the
// access also pays the reliable-transport overhead and can fail with an
// *Error; callers must not move the payload on error.
func (p *Proc) charge(op string, target int, d AccessDesc, msgPack bool) *Error {
	if err := p.enter(op, target); err != nil {
		return err
	}
	entry := p.entryClock()
	rec, begin := p.traceBegin()
	cl, node, bytes := p.w.cl, p.node(), d.Bytes()
	if msgPack {
		cl.ChargeComm(node, sim.Time(bytes)*cl.Params().CPU.MemCopyPerByte, 0)
	}
	tr := interconnect.TransportLocal
	if target == p.rank {
		cl.ChargeComm(node, p.localCopyCost(bytes), bytes)
	} else {
		var cost sim.Time
		cost, tr = cl.CommCost().Price(d, p.hops(target), cl.RegCache(node))
		if op == trace.OpSend && tr == interconnect.TransportDMA {
			tr = interconnect.TransportP2P
		}
		cl.ChargeComm(node, cost, bytes)
	}
	p.traceEnd(rec, begin, op, target, int64(bytes), int64(bytes), tr)
	return p.chargeReliability(op, target, bytes, entry)
}

// Put copies the region described by d from origin into target's
// window (MPI_PUT): origin's element d.Offset+i·d.Stride lands at the
// same index of the window. Under fault injection a failed transfer
// returns the *Error and leaves the target window unmodified.
func (p *Proc) Put(win *Win, target int, d AccessDesc, origin []float64) error {
	return p.access("Put", win, target, d, origin, false)
}

// Get copies the region described by d from target's window into
// origin, at the same indices (MPI_GET). Under fault injection a failed
// transfer returns the *Error and leaves origin unmodified.
func (p *Proc) Get(win *Win, target int, d AccessDesc, origin []float64) error {
	return p.access("Get", win, target, d, origin, true)
}

// access is Put, or with get set Get: Charge's charge, then the copy
// under the target's apply lock.
func (p *Proc) access(name string, win *Win, target int, d AccessDesc, origin []float64, get bool) error {
	buf, verr := p.validateAccess(name, win, target, d, origin)
	if verr != nil {
		return verr
	}
	if err := p.Charge(target, d, get); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	copyRegion(buf, origin, d, get)
	win.applyMu[target].Unlock()
	return nil
}

// Accumulate adds origin's region described by d element-wise into the
// same indices of target's window (MPI_ACCUMULATE with MPI_SUM). The
// per-target apply lock makes concurrent accumulations from different
// origins atomic. Under fault injection a failed transfer returns the
// *Error and leaves the target window unmodified.
func (p *Proc) Accumulate(win *Win, target int, d AccessDesc, origin []float64) error {
	buf, verr := p.validateAccess("Accumulate", win, target, d, origin)
	if verr != nil {
		return verr
	}
	if err := p.charge(trace.OpAccumulate, target, d, false); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	for i, x := int64(0), d.Offset; i < d.Elems; i, x = i+1, x+d.Stride {
		buf[x] += origin[x]
	}
	win.applyMu[target].Unlock()
	return nil
}

// Charge charges the described PUT (with get set, GET) to target and
// traces it as that verb, moving no data. The interpreter charges every
// planned transfer this way in both modes; Full mode then lands the
// data with CopySpans. The descriptor is validated like the data-moving
// paths' (window bounds excepted: there is no window).
func (p *Proc) Charge(target int, d AccessDesc, get bool) error {
	p.validateAccess("Charge", nil, target, d, nil) // no window, so no error
	if err := p.charge(accessOp(get, target == p.rank, d), target, d, false); err != nil {
		return err
	}
	return nil
}

// CopySpans copies the elements of spans, each displaced by shift,
// between origin and target's window, at the same indices on both
// sides: into the window, or out of it into origin with get set. It
// charges nothing and traces nothing — the transfers whose union the
// spans are (lmad.Cover) were charged one by one with Charge — so each
// element the plan moves lands once, however many transfers carry it,
// before the epoch's fence returns, and not before the target has
// posted as often as the caller (Post). The spans must be sorted and
// disjoint, as lmad.Cover returns them, so their hull bounds them all.
func (p *Proc) CopySpans(win *Win, target int, spans []lmad.Span, shift int64, origin []float64, get bool) error {
	if len(spans) == 0 {
		return nil
	}
	for i, s := range spans {
		if s.Hi < s.Lo || i > 0 && s.Lo < spans[i-1].Hi {
			panic(fmt.Sprintf("mpi: CopySpans span %d %v not sorted and disjoint", i, s))
		}
	}
	if err := p.awaitPost(target); err != nil {
		return err
	}
	lo, hi := shift+spans[0].Lo, shift+spans[len(spans)-1].Hi
	buf, verr := p.validateAccess("CopySpans", win, target, ContigDesc(lo, hi-lo), origin)
	if verr != nil {
		return verr
	}
	win.applyMu[target].Lock()
	for _, s := range spans {
		copyRegion(buf, origin, ContigDesc(shift+s.Lo, s.Hi-s.Lo), get)
	}
	win.applyMu[target].Unlock()
	return nil
}
