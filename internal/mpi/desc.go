package mpi

// The one-sided API: Put, Get, Accumulate and the charge-only Charge
// each take an LMAD-backed AccessDesc, so contiguous (DMA), strided
// (programmed I/O) and packed (pack → contiguous DMA burst → unpack)
// transfers share one entry point per verb, one validation site, one
// fault/retry path and one charge site (charge, which two-sided sends
// share). What a transfer costs and which path it rides is decided by
// internal/commcost, not here.

import (
	"fmt"

	"vbuscluster/internal/commcost"
	"vbuscluster/internal/interconnect"
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

// putOp names the trace operation of a PUT-direction access: "put"
// for contiguous runs, "put.p" for packed strided bursts (remote
// targets only — a rank-local copy involves no NIC, so packing is
// meaningless and the access traces as plain strided), "put.s"
// otherwise.
func putOp(local bool, d AccessDesc) string {
	switch {
	case d.Contig():
		return trace.OpPut
	case d.Packed && !local:
		return trace.OpPutPacked
	default:
		return trace.OpPutStride
	}
}

// getOp is putOp for the GET direction.
func getOp(local bool, d AccessDesc) string {
	switch {
	case d.Contig():
		return trace.OpGet
	case d.Packed && !local:
		return trace.OpGetPacked
	default:
		return trace.OpGetStride
	}
}

// validateAccess is the single validation site of the one-sided layer
// (argument errors panic: they are programming errors, not faults —
// the same rule Send documents). name is the public entry point;
// dataLen is the caller's buffer length (-1 for the charge-only path,
// which moves no data). Returns the target window buffer (nil without a
// window). A window on which target exposes no region is not an
// argument error but a state of the run, reported as ErrNoRegion.
func (p *Proc) validateAccess(name string, win *Win, target int, d AccessDesc, dataLen int) ([]float64, *Error) {
	if d.Stride <= 0 {
		panic(fmt.Sprintf("mpi: %s stride %d must be positive", name, d.Stride))
	}
	if d.Elems < 0 {
		panic(fmt.Sprintf("mpi: %s element count %d must be non-negative", name, d.Elems))
	}
	if dataLen >= 0 && int64(dataLen) != d.Elems {
		panic(fmt.Sprintf("mpi: %s buffer has %d elements, descriptor wants %d", name, dataLen, d.Elems))
	}
	if win == nil {
		return nil, nil
	}
	buf := win.target(target)
	if buf == nil {
		return nil, &Error{Kind: ErrNoRegion, Rank: p.rank, Op: name, Peer: target, Win: win.name, Time: p.Wtime()}
	}
	if d.Stride == 1 {
		if d.Offset < 0 || d.Offset+d.Elems > int64(len(buf)) {
			panic(fmt.Sprintf("mpi: %s %q rank %d [%d,%d) outside window size %d",
				name, win.name, target, d.Offset, d.Offset+d.Elems, len(buf)))
		}
	} else if d.Elems > 0 {
		last := d.Offset + (d.Elems-1)*d.Stride
		if d.Offset < 0 || last >= int64(len(buf)) {
			panic(fmt.Sprintf("mpi: %s %q rank %d last index %d outside window size %d",
				name, win.name, target, last, len(buf)))
		}
	}
	return buf, nil
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

// Put transfers data into target's window region described by d
// (MPI_PUT): data[i] lands at d.Offset + i*d.Stride. Under fault
// injection a failed transfer returns the *Error and leaves the target
// window unmodified.
func (p *Proc) Put(win *Win, target int, d AccessDesc, data []float64) error {
	buf, verr := p.validateAccess("Put", win, target, d, len(data))
	if verr != nil {
		return verr
	}
	if err := p.charge(putOp(target == p.rank, d), target, d, false); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	if d.Stride == 1 {
		copy(buf[d.Offset:], data)
	} else {
		for i, v := range data {
			buf[d.Offset+int64(i)*d.Stride] = v
		}
	}
	win.applyMu[target].Unlock()
	return nil
}

// Get reads the region described by d from target's window into dst
// (MPI_GET); len(dst) must equal d.Elems. Under fault injection a
// failed transfer returns the *Error and leaves dst unmodified.
func (p *Proc) Get(win *Win, target int, d AccessDesc, dst []float64) error {
	buf, verr := p.validateAccess("Get", win, target, d, len(dst))
	if verr != nil {
		return verr
	}
	if err := p.charge(getOp(target == p.rank, d), target, d, false); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	if d.Stride == 1 {
		copy(dst, buf[d.Offset:d.Offset+d.Elems])
	} else {
		for i := range dst {
			dst[i] = buf[d.Offset+int64(i)*d.Stride]
		}
	}
	win.applyMu[target].Unlock()
	return nil
}

// Accumulate adds data element-wise into target's window region
// described by d (MPI_ACCUMULATE with MPI_SUM). The per-target apply
// lock makes concurrent accumulations from different origins atomic.
// Under fault injection a failed transfer returns the *Error and leaves
// the target window unmodified.
func (p *Proc) Accumulate(win *Win, target int, d AccessDesc, data []float64) error {
	buf, verr := p.validateAccess("Accumulate", win, target, d, len(data))
	if verr != nil {
		return verr
	}
	if err := p.charge(trace.OpAccumulate, target, d, false); err != nil {
		return err
	}
	win.applyMu[target].Lock()
	for i, v := range data {
		buf[d.Offset+int64(i)*d.Stride] += v
	}
	win.applyMu[target].Unlock()
	return nil
}

// Charge charges the cost of the described PUT/GET to target without
// moving data — the interpreter's timing-only mode, where large
// experiments cost the same virtual time as full execution without
// touching real arrays. The descriptor is validated exactly like the
// data-moving paths (window bounds excepted: there is no window).
func (p *Proc) Charge(target int, d AccessDesc) error {
	p.validateAccess("Charge", nil, target, d, -1) // no window, so no error
	if err := p.charge(putOp(target == p.rank, d), target, d, false); err != nil {
		return err
	}
	return nil
}
