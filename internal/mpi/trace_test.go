package mpi

import (
	"sync"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// runTraced is runWorld with a trace.Recorder attached before the rank
// goroutines start. It returns the recorder alongside the cluster's
// final accounting so tests can reconcile the two.
func runTraced(t *testing.T, n int, fabric string, body func(p *Proc)) (*trace.Recorder, *cluster.Cluster) {
	t.Helper()
	params, err := cluster.ParamsForFabric(fabric)
	if err != nil {
		t.Fatal(err)
	}
	if n > 4 {
		params.MeshWidth, params.MeshHeight = 4, 4
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cl.SetRecorder(rec)
	w := NewWorld(cl)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			body(w.Rank(rank))
		}(r)
	}
	wg.Wait()
	return rec, cl
}

// mixedWorkload exercises every instrumented operation: one-sided
// contiguous/strided puts and gets, accumulate, lock/unlock, two-sided
// ring exchange, region send/recv, the three collectives, fences and
// barriers. Sizes vary per rank through a fixed linear-congruential
// sequence so the workload is deterministic but not uniform.
func mixedWorkload(p *Proc) {
	n := p.Size()
	seed := uint64(p.Rank())*2654435761 + 12345
	next := func(mod int) int {
		seed = seed*6364136223846793005 + 1442695040888963407
		return int(seed>>33)%mod + 1
	}
	local := make([]float64, 4096)
	win := p.WinCreate("prop", local)
	for round := 0; round < 3; round++ {
		dst := (p.Rank() + 1 + round) % n
		putAt(p, win, dst, 0, make([]float64, next(256)))
		putStride(p, win, dst, next(16), 3, make([]float64, next(128)))
		got := make([]float64, next(64))
		getAt(p, win, dst, next(32), got)
		getStride(p, win, dst, next(16), 2, make([]float64, next(32)))
		accumAt(p, win, 0, 0, make([]float64, next(8)))
		Must(p.Fence(win))
	}
	Must(p.Lock(win, 0))
	putAt(p, win, 0, 8*p.Rank(), []float64{float64(p.Rank())})
	p.Unlock(win, 0)
	Must(p.Fence(win))

	// Two-sided ring plus region traffic.
	nextRank, prevRank := (p.Rank()+1)%n, (p.Rank()+n-1)%n
	Must(p.Send(nextRank, 1, make([]float64, next(200))))
	must(p.Recv(prevRank, 1))
	elems := 64 + 8*p.Rank()
	Must(p.SendRegion(nextRank, 2, elems, make([]float64, elems)))
	must(p.RecvRegion(prevRank, 2, 64+8*prevRank))

	// Collectives.
	var in []float64
	if p.Rank() == 0 {
		in = make([]float64, 32)
	}
	must(p.Bcast(0, in))
	must(p.Reduce(Sum, 0, []float64{float64(p.Rank())}))
	must(p.Allreduce(Max, []float64{float64(p.Rank())}))
	Must(p.Barrier())

	// Charge-only helpers (the interpreter's Timing mode path).
	if p.Rank() == 0 {
		chargeContig(p, 1, next(512))
		chargeStride(p, 1, next(128))
	}
	Must(p.Barrier())
}

// checkTraceInvariants pins the three properties from the design: every
// interval has end >= begin, intervals on one rank never overlap, and
// summed traced bytes per rank (and per transport) exactly equal the
// bytes priced through the interconnect cost calls.
func checkTraceInvariants(t *testing.T, rec *trace.Recorder, cl *cluster.Cluster) {
	t.Helper()
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("traced run recorded no events")
	}
	rep := cl.Snapshot()
	n := cl.N()
	lastEnd := make(map[int]sim.Time)
	bytesByRank := make([]int64, n)
	for i, e := range evs {
		if e.End < e.Begin {
			t.Fatalf("event %d %+v has end < begin", i, e)
		}
		if e.Begin < lastEnd[e.Rank] {
			t.Fatalf("event %d %+v overlaps previous interval on rank %d (ends at %v)",
				i, e, e.Rank, lastEnd[e.Rank])
		}
		lastEnd[e.Rank] = e.End
		if e.Rank >= 0 && e.Rank < n {
			bytesByRank[e.Rank] += e.Bytes
			if e.End > cl.Clock(e.Rank) {
				t.Fatalf("event %+v ends after rank %d's final clock %v", e, e.Rank, cl.Clock(e.Rank))
			}
		}
	}
	for r := 0; r < n; r++ {
		if bytesByRank[r] != rep.CommBytes[r] {
			t.Errorf("rank %d traced %d bytes, cluster accounted %d",
				r, bytesByRank[r], rep.CommBytes[r])
		}
	}
	// The per-transport split must partition the per-rank total, and the
	// traced intervals must fit inside the rank's clock.
	for _, s := range rec.Summaries(rep.Clocks) {
		var sum int64
		for tr := interconnect.Transport(0); tr < interconnect.NumTransports; tr++ {
			sum += s.BytesByTransport[tr]
		}
		if sum != s.Bytes {
			t.Errorf("rank %d transport split sums to %d, total is %d", s.Rank, sum, s.Bytes)
		}
		if s.Transfer+s.Wait > s.Clock {
			t.Errorf("rank %d traced time %v exceeds clock %v",
				s.Rank, s.Transfer+s.Wait, s.Clock)
		}
	}
}

func TestTraceInvariantsAcrossFabrics(t *testing.T) {
	for _, fabric := range []string{"vbus", "ethernet", "ideal"} {
		for _, n := range []int{1, 2, 4} {
			rec, cl := runTraced(t, n, fabric, mixedWorkload)
			t.Run(fabric, func(t *testing.T) { checkTraceInvariants(t, rec, cl) })
		}
	}
}

// The traced timeline is a pure function of the program, not of the
// goroutine schedule: two runs of the same deterministic workload must
// produce identical sorted event lists.
func TestTraceDeterministicAcrossRuns(t *testing.T) {
	rec1, _ := runTraced(t, 4, "vbus", mixedWorkload)
	rec2, _ := runTraced(t, 4, "vbus", mixedWorkload)
	e1, e2 := rec1.Events(), rec2.Events()
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ across runs: %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs across runs:\n  %+v\n  %+v", i, e1[i], e2[i])
		}
	}
}

// Transport classification per fabric: the V-Bus card moves contiguous
// puts over DMA and strided puts over PIO; Ethernet has neither engine
// (contiguous goes P2P, strided PIO); the ideal fabric moves everything
// over DMA.
func TestTraceTransportClasses(t *testing.T) {
	cases := []struct {
		fabric  string
		contig  interconnect.Transport
		strided interconnect.Transport
	}{
		{"vbus", interconnect.TransportDMA, interconnect.TransportPIO},
		{"ethernet", interconnect.TransportP2P, interconnect.TransportPIO},
		{"ideal", interconnect.TransportDMA, interconnect.TransportDMA},
	}
	for _, tc := range cases {
		rec, _ := runTraced(t, 2, tc.fabric, func(p *Proc) {
			win := p.WinCreate("t", make([]float64, 64))
			if p.Rank() == 0 {
				putAt(p, win, 1, 0, make([]float64, 8))
				putStride(p, win, 1, 0, 2, make([]float64, 8))
				Must(p.Send(1, 0, make([]float64, 4)))
			} else {
				must(p.Recv(0, 0))
			}
			Must(p.Fence(win))
		})
		got := map[string]interconnect.Transport{}
		for _, e := range rec.Events() {
			if e.Rank == 0 {
				got[e.Op] = e.Transport
			}
		}
		if got[trace.OpPut] != tc.contig {
			t.Errorf("%s: contiguous put on %v, want %v", tc.fabric, got[trace.OpPut], tc.contig)
		}
		if got[trace.OpPutStride] != tc.strided {
			t.Errorf("%s: strided put on %v, want %v", tc.fabric, got[trace.OpPutStride], tc.strided)
		}
		if got[trace.OpSend] != interconnect.TransportP2P {
			t.Errorf("%s: send on %v, want p2p", tc.fabric, got[trace.OpSend])
		}
		if got[trace.OpFence] != interconnect.TransportSync {
			t.Errorf("%s: fence on %v, want sync", tc.fabric, got[trace.OpFence])
		}
	}
}

// Rank-local operations never leave the node: puts and gets targeting
// the calling rank are tagged TransportLocal and still carry their
// accounted bytes.
func TestTraceLocalTransport(t *testing.T) {
	rec, cl := runTraced(t, 2, "", func(p *Proc) {
		win := p.WinCreate("l", make([]float64, 16))
		putAt(p, win, p.Rank(), 0, make([]float64, 4))
		Must(p.Fence(win))
	})
	var localEvents int
	for _, e := range rec.Events() {
		if e.Op == trace.OpPut {
			if e.Transport != interconnect.TransportLocal {
				t.Fatalf("self put classified %v", e.Transport)
			}
			localEvents++
		}
	}
	if localEvents != 2 {
		t.Fatalf("want 2 local put events, got %d", localEvents)
	}
	checkTraceInvariants(t, rec, cl)
}

// The charge-only helpers must trace exactly like the real transfers
// they stand in for: same op, bytes and transport (the interpreter's
// Timing mode depends on this equivalence).
func TestChargeOnlyHelpersTraceLikeRealPuts(t *testing.T) {
	realBody := func(p *Proc) {
		win := p.WinCreate("c", make([]float64, 4096))
		if p.Rank() == 0 {
			putAt(p, win, 1, 0, make([]float64, 4096))
			putStride(p, win, 1, 0, 2, make([]float64, 2048))
		}
		Must(p.Fence(win))
	}
	chargeBody := func(p *Proc) {
		win := p.WinCreate("c", make([]float64, 4096))
		if p.Rank() == 0 {
			chargeContig(p, 1, 4096)
			chargeStride(p, 1, 2048)
		}
		Must(p.Fence(win))
	}
	recReal, _ := runTraced(t, 2, "", realBody)
	recCharge, _ := runTraced(t, 2, "", chargeBody)
	e1, e2 := recReal.Events(), recCharge.Events()
	if len(e1) != len(e2) {
		t.Fatalf("event counts differ: real %d, charge-only %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i] != e2[i] {
			t.Fatalf("event %d differs:\n  real:   %+v\n  charge: %+v", i, e1[i], e2[i])
		}
	}
}

// With no recorder attached, nothing is recorded and the accounting is
// identical to a traced run — tracing observes, never perturbs.
func TestTracingDoesNotPerturbCosts(t *testing.T) {
	_, clPlain := runWorld(t, 4, mixedWorkload)
	rec, clTraced := runTraced(t, 4, "", mixedWorkload)
	if rec.Len() == 0 {
		t.Fatal("traced run recorded nothing")
	}
	plain, traced := clPlain.Snapshot(), clTraced.Snapshot()
	for r := 0; r < 4; r++ {
		if plain.Clocks[r] != traced.Clocks[r] {
			t.Fatalf("rank %d clock differs with tracing: %v vs %v", r, plain.Clocks[r], traced.Clocks[r])
		}
		if plain.CommBytes[r] != traced.CommBytes[r] || plain.CommTime[r] != traced.CommTime[r] {
			t.Fatalf("rank %d accounting differs with tracing on", r)
		}
	}
}

// Receives are waits: the recv interval spans the block until the
// message lands, tagged sync with zero accounted bytes but the logical
// payload recorded.
func TestTraceRecvWaitsAndPayload(t *testing.T) {
	rec, _ := runTraced(t, 2, "", func(p *Proc) {
		if p.Rank() == 0 {
			p.w.cl.ChargeCompute(0, 100*sim.Microsecond)
			Must(p.Send(1, 0, make([]float64, 1024)))
		} else {
			must(p.Recv(0, 0))
		}
	})
	for _, e := range rec.Events() {
		if e.Op != trace.OpRecv {
			continue
		}
		if e.Transport != interconnect.TransportSync || e.Bytes != 0 {
			t.Fatalf("recv should be a zero-byte sync event, got %+v", e)
		}
		if e.Payload != 1024*WordBytes {
			t.Fatalf("recv payload = %d, want %d", e.Payload, 1024*WordBytes)
		}
		if e.Peer != 0 {
			t.Fatalf("recv peer = %d, want 0", e.Peer)
		}
		if e.Duration() < 100*sim.Microsecond {
			t.Fatalf("recv wait %v should cover the sender's 100us head start", e.Duration())
		}
		return
	}
	t.Fatal("no recv event traced")
}
