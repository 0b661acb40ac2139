package mpi

import (
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Tracing glue: every MPI operation brackets its body with
// traceBegin/traceEnd, recording one interval [clock-at-entry,
// clock-at-exit] on the calling rank's virtual timeline. Instrumented
// operations never nest (Fence records through the shared barrier
// body, Sendrecv through its Send and Recv halves), so the intervals
// of one rank never overlap — the invariant the trace property tests
// pin. With no recorder attached the cost is one nil check; the extra
// Clock() reads are skipped entirely.

// traceBegin returns the cluster's recorder and the calling rank's
// clock. A nil recorder means tracing is off (and the clock is not
// read).
func (p *Proc) traceBegin() (*trace.Recorder, sim.Time) {
	rec := p.w.cl.Recorder()
	if rec == nil {
		return nil, 0
	}
	return rec, p.w.cl.Clock(p.node())
}

// traceEnd records the interval from begin to the rank's current
// clock. bytes must be exactly what the operation charged through
// cluster.ChargeComm/BookComm, so traced totals reconcile with the
// cluster's interconnect-priced accounting; payload is the logical
// payload size (they differ for collectives, which account no bytes).
func (p *Proc) traceEnd(rec *trace.Recorder, begin sim.Time, op string, peer int, bytes, payload int64, tr interconnect.Transport) {
	if rec == nil {
		return
	}
	p.traceSpan(rec, begin, p.w.cl.Clock(p.node()), op, peer, bytes, payload, tr)
}

// traceSpan records the interval [begin, end] on a non-nil recorder.
func (p *Proc) traceSpan(rec *trace.Recorder, begin, end sim.Time, op string, peer int, bytes, payload int64, tr interconnect.Transport) {
	// Events are keyed by physical node, not communicator rank, so a
	// timeline stays coherent across communicator shrinks (on the
	// all-nodes world the two are identical).
	rec.Add(trace.Event{
		Rank:      p.node(),
		Op:        op,
		Peer:      p.w.nodeOf(peer),
		Bytes:     bytes,
		Payload:   payload,
		Transport: tr,
		Begin:     begin,
		End:       end,
	})
}
