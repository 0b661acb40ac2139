package mpi

import (
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// runFaultWorld is runWorld with a fault spec and a recorder attached.
// body returns the rank's error (nil on success); an erroring rank is
// departed so peers observe the failure instead of deadlocking.
func runFaultWorld(t *testing.T, n int, spec string, body func(p *Proc) error) (*World, *trace.Recorder, []error) {
	t.Helper()
	params := cluster.DefaultParams()
	if n > 4 {
		params.MeshWidth, params.MeshHeight = 4, 4
	}
	if spec != "" {
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatalf("spec %q: %v", spec, err)
		}
		params.Faults = inj
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	cl.SetRecorder(rec)
	w := NewWorld(cl)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			errs[rank] = body(w.Rank(rank))
			if errs[rank] != nil {
				w.Depart(rank)
			}
		}(r)
	}
	wg.Wait()
	w.Shutdown()
	return w, rec, errs
}

// faultWorkload runs every transfer path — two-sided ring exchange,
// one-sided put/get with a fence, broadcast, allreduce — and returns
// every payload the rank received, concatenated in program order.
func faultWorkload(p *Proc) []float64 {
	n, r := p.Size(), p.Rank()
	var got []float64
	local := make([]float64, 256)
	win := p.WinCreate("fw", local)
	for round := 0; round < 3; round++ {
		// Ring exchange with round-varying payload sizes.
		msg := make([]float64, 17+round*31+r)
		for i := range msg {
			msg[i] = float64(r*1000 + round*100 + i)
		}
		got = append(got, must(p.Sendrecv((r+1)%n, round, msg, (r+n-1)%n, round))...)
		// One-sided: put into the right neighbor, fence, read it back.
		put := make([]float64, 23+round*7)
		for i := range put {
			put[i] = float64(r) + float64(i)/64
		}
		putAt(p, win, (r+1)%n, 0, put)
		Must(p.Fence(win))
		back := make([]float64, len(put))
		getAt(p, win, (r+1)%n, 0, back)
		got = append(got, back...)
		// Collectives: root rotates; bcast exercises the V-Bus path
		// (and its degradation under busfail specs).
		b := must(p.Bcast(round%n, []float64{float64(round), float64(r), 3.5}))
		got = append(got, b...)
		got = append(got, must(p.Allreduce(Sum, []float64{float64(r + round)}))...)
	}
	Must(p.Barrier())
	return got
}

// faultSpecs is the schedule zoo the delivery property runs under:
// drops, corruption, bus-acquisition failures (forcing p2p tree
// degradation) and a link outage, alone and combined.
var faultSpecs = []string{
	"seed=7,flitdrop=2e-2",
	"seed=9,corrupt=3e-2",
	"seed=11,flitdrop=5e-2,corrupt=1e-2,mtu=512,window=2",
	"seed=13,busfail=0.9,bustimeout=20us",
	"seed=15,flitdrop=1e-2,linkdown=0-1@0ns+50us",
}

// TestFaultDeliveryByteIdentical is the delivery property: under any
// fault schedule the reliability layer must hand every rank payloads
// byte-identical to a fault-free run — faults may only cost time.
func TestFaultDeliveryByteIdentical(t *testing.T) {
	const n = 4
	collect := func(spec string) ([][]float64, *World) {
		payloads := make([][]float64, n)
		w, _, errs := runFaultWorld(t, n, spec, func(p *Proc) error {
			payloads[p.Rank()] = faultWorkload(p)
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("spec %q rank %d: %v", spec, r, err)
			}
		}
		return payloads, w
	}
	clean, cw := collect("")
	for _, spec := range faultSpecs {
		faulty, fw := collect(spec)
		for r := 0; r < n; r++ {
			if len(faulty[r]) != len(clean[r]) {
				t.Fatalf("spec %q rank %d: got %d words, clean run got %d",
					spec, r, len(faulty[r]), len(clean[r]))
			}
			for i := range clean[r] {
				if math.Float64bits(faulty[r][i]) != math.Float64bits(clean[r][i]) {
					t.Fatalf("spec %q rank %d word %d: got %v (bits %#x), want %v (bits %#x)",
						spec, r, i, faulty[r][i], math.Float64bits(faulty[r][i]),
						clean[r][i], math.Float64bits(clean[r][i]))
				}
			}
			// Faults never make a rank finish earlier than the clean run.
			if fc, cc := fw.cl.Clock(r), cw.cl.Clock(r); fc < cc {
				t.Errorf("spec %q rank %d: faulty clock %v < clean clock %v", spec, r, fc, cc)
			}
		}
	}
}

// TestFaultClocksMonotone is the timeline property: per-rank trace
// intervals are well-formed (End >= Begin) and never overlap — each
// rank's virtual clock only moves forward — under every fault spec.
func TestFaultClocksMonotone(t *testing.T) {
	for _, spec := range faultSpecs {
		_, rec, errs := runFaultWorld(t, 4, spec, func(p *Proc) error {
			faultWorkload(p)
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("spec %q rank %d: %v", spec, r, err)
			}
		}
		retries := 0
		lastEnd := map[int]sim.Time{}
		for _, ev := range rec.Events() {
			if ev.End < ev.Begin {
				t.Fatalf("spec %q: event %+v runs backwards", spec, ev)
			}
			if ev.Begin < lastEnd[ev.Rank] {
				t.Fatalf("spec %q rank %d: event %q begins at %v before previous end %v",
					spec, ev.Rank, ev.Op, ev.Begin, lastEnd[ev.Rank])
			}
			lastEnd[ev.Rank] = ev.End
			if ev.Op == trace.OpRetry {
				retries++
				if ev.Bytes != 0 {
					t.Errorf("spec %q: retry interval accounts %d bytes, want 0", spec, ev.Bytes)
				}
			}
		}
		if retries == 0 && spec == faultSpecs[0] {
			t.Errorf("spec %q injected no retransmissions; property is vacuous", spec)
		}
	}
}

// TestFaultTimelineReplayable: the same seed and spec produce an
// identical event timeline across runs — the injector is a pure
// function of the spec and the deterministic packet sequence numbers.
func TestFaultTimelineReplayable(t *testing.T) {
	run := func() []trace.Event {
		_, rec, _ := runFaultWorld(t, 4, faultSpecs[2], func(p *Proc) error {
			faultWorkload(p)
			return nil
		})
		return rec.Events()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		for i := range a {
			if i < len(b) && !reflect.DeepEqual(a[i], b[i]) {
				t.Fatalf("timelines diverge at event %d:\n  run A: %+v\n  run B: %+v", i, a[i], b[i])
			}
		}
		t.Fatalf("timelines differ in length: %d vs %d events", len(a), len(b))
	}
}

// TestFaultCostMonotoneInDropRate: same seed, rising drop rate — a
// rank's completion clock never decreases, because the injector's
// uniform-threshold decision makes every lower-rate drop a subset of
// the higher-rate drops.
func TestFaultCostMonotoneInDropRate(t *testing.T) {
	rates := []string{"", "seed=21,flitdrop=1e-3", "seed=21,flitdrop=1e-2", "seed=21,flitdrop=8e-2"}
	var prev sim.Time
	for _, spec := range rates {
		w, _, errs := runFaultWorld(t, 4, spec, func(p *Proc) error {
			faultWorkload(p)
			return nil
		})
		for r, err := range errs {
			if err != nil {
				t.Fatalf("spec %q rank %d: %v", spec, r, err)
			}
		}
		var last sim.Time
		for r := 0; r < 4; r++ {
			if c := w.cl.Clock(r); c > last {
				last = c
			}
		}
		if last < prev {
			t.Fatalf("spec %q: completion %v earlier than lower drop rate's %v", spec, last, prev)
		}
		prev = last
	}
}

// shrinkWatchdog makes the wall-clock escape hatch fast for tests that
// deliberately block forever.
func shrinkWatchdog(t *testing.T) {
	t.Helper()
	old := WatchdogWall
	WatchdogWall = 300 * time.Millisecond
	t.Cleanup(func() { WatchdogWall = old })
}

// TestRecvDeadlineTimeout: a receive whose sender never shows up fails
// with a structured timeout instead of deadlocking, and the Error
// carries the deterministic virtual deadline.
func TestRecvDeadlineTimeout(t *testing.T) {
	shrinkWatchdog(t)
	_, _, errs := runFaultWorld(t, 2, "deadline=1ms", func(p *Proc) error {
		if p.Rank() == 1 {
			_, err := p.Recv(0, 5)
			return err
		}
		return nil // rank 0 never sends
	})
	var me *Error
	if !errors.As(errs[1], &me) {
		t.Fatalf("rank 1: got %v, want *mpi.Error", errs[1])
	}
	if me.Kind != ErrTimeout || me.Rank != 1 || me.Op != trace.OpRecv || me.Peer != 0 {
		t.Errorf("timeout error fields = %+v", me)
	}
	if me.Time != sim.Millisecond {
		t.Errorf("timeout at %v, want the deterministic deadline %v", me.Time, sim.Millisecond)
	}
}

// TestCrashSurfacesStructuredErrors: a crashed rank fails its own next
// operation with ErrCrashed, and a peer blocked on it gets
// ErrPeerCrashed rather than hanging.
func TestCrashSurfacesStructuredErrors(t *testing.T) {
	shrinkWatchdog(t)
	_, _, errs := runFaultWorld(t, 2, "crash=0@1us", func(p *Proc) error {
		if p.Rank() == 0 {
			p.w.cl.ChargeCompute(0, 5*sim.Microsecond) // sail past the crash time
			return p.Send(1, 3, []float64{1})
		}
		_, err := p.Recv(0, 3)
		return err
	})
	var crashed *Error
	if !errors.As(errs[0], &crashed) || crashed.Kind != ErrCrashed {
		t.Fatalf("rank 0: got %v, want ErrCrashed", errs[0])
	}
	if crashed.Time != sim.Microsecond {
		t.Errorf("crash reported at %v, want the injected %v", crashed.Time, sim.Microsecond)
	}
	var peer *Error
	if !errors.As(errs[1], &peer) || peer.Kind != ErrPeerCrashed {
		t.Fatalf("rank 1: got %v, want ErrPeerCrashed", errs[1])
	}
	if peer.Peer != 0 {
		t.Errorf("peer-crashed error blames rank %d, want 0", peer.Peer)
	}
}

// TestBcastDegradesToSoftwareTree: with bus acquisition guaranteed to
// fail, broadcast still delivers (over the p2p tree) and costs more
// than the clean hardware broadcast.
func TestBcastDegradesToSoftwareTree(t *testing.T) {
	elapsed := func(spec string) sim.Time {
		w, _, errs := runFaultWorld(t, 4, spec, func(p *Proc) error {
			got := must(p.Bcast(0, []float64{4, 5, 6}))
			if len(got) != 3 || got[0] != 4 || got[2] != 6 {
				t.Errorf("rank %d: bcast payload %v", p.Rank(), got)
			}
			return nil
		})
		for _, err := range errs {
			if err != nil {
				t.Fatal(err)
			}
		}
		var last sim.Time
		for r := 0; r < 4; r++ {
			if c := w.cl.Clock(r); c > last {
				last = c
			}
		}
		return last
	}
	clean := elapsed("")
	degraded := elapsed("seed=1,busfail=1,bustimeout=50us")
	// Three failed acquisitions plus the tree: at least the timeouts.
	if degraded < clean+3*50*sim.Microsecond {
		t.Errorf("degraded bcast finished at %v, want >= clean %v + 3 bus timeouts", degraded, clean)
	}
}
