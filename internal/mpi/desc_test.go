package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/trace"
)

// seq fills a buffer with a distinct deterministic ramp so payload
// mixups are visible in comparisons.
func seq(n int, base float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + float64(i)
	}
	return out
}

// descRun captures the target window's final state of one run.
type descRun struct {
	mu     sync.Mutex
	window []float64
}

// The contiguous and strided spellings the tests issue most, over the
// descriptor verbs; failures are fatal to the rank.
func putAt(p *Proc, win *Win, target, off int, data []float64) {
	Must(p.Put(win, target, ContigDesc(int64(off), int64(len(data))), data))
}

func getAt(p *Proc, win *Win, target, off int, dst []float64) {
	Must(p.Get(win, target, ContigDesc(int64(off), int64(len(dst))), dst))
}

func putStride(p *Proc, win *Win, target, off, stride int, data []float64) {
	Must(p.Put(win, target, StridedDesc(int64(off), int64(len(data)), int64(stride)), data))
}

func getStride(p *Proc, win *Win, target, off, stride int, dst []float64) {
	Must(p.Get(win, target, StridedDesc(int64(off), int64(len(dst)), int64(stride)), dst))
}

func accumAt(p *Proc, win *Win, target, off int, data []float64) {
	Must(p.Accumulate(win, target, ContigDesc(int64(off), int64(len(data))), data))
}

// chargeContig and chargeStride charge a PUT of elems words without a
// window; the strided charge depends only on the element count, so the
// descriptor carries a placeholder stride.
func chargeContig(p *Proc, target, elems int) {
	Must(p.Charge(target, ContigDesc(0, int64(elems))))
}

func chargeStride(p *Proc, target, elems int) {
	Must(p.Charge(target, StridedDesc(0, int64(elems), 2)))
}

// mustPanic runs fn and asserts it panics with a message containing
// want. Safe to call from rank goroutines (t.Errorf only).
func mustPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Errorf("no panic, want one mentioning %q", want)
			return
		}
		if msg := fmt.Sprint(r); !strings.Contains(msg, want) {
			t.Errorf("panic %q does not mention %q", msg, want)
		}
	}()
	fn()
}

// validateAccess is the single validation site: every verb panics with
// a message naming its entry point. The charge-only path validates
// stride and element count exactly like the data-moving paths but skips
// window bounds (it has no window).
func TestDescValidationPanics(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("w", make([]float64, 64))
		if p.Rank() == 0 {
			mustPanic(t, "mpi: Put stride 0 must be positive", func() {
				Must(p.Put(win, 1, AccessDesc{Elems: 4, Stride: 0}, seq(4, 0)))
			})
			mustPanic(t, "mpi: Put element count -1 must be non-negative", func() {
				Must(p.Put(win, 1, AccessDesc{Elems: -1, Stride: 1}, nil))
			})
			mustPanic(t, "mpi: Put buffer has 3 elements, descriptor wants 4", func() {
				Must(p.Put(win, 1, ContigDesc(0, 4), seq(3, 0)))
			})
			mustPanic(t, `mpi: Put "w" rank 1 [60,70) outside window size 64`, func() {
				Must(p.Put(win, 1, ContigDesc(60, 10), seq(10, 0)))
			})
			mustPanic(t, `mpi: Get "w" rank 1 last index 64 outside window size 64`, func() {
				Must(p.Get(win, 1, StridedDesc(0, 5, 16), make([]float64, 5)))
			})
			mustPanic(t, `mpi: Get "w" rank 1 last index 99 outside window size 64`, func() {
				Must(p.Get(win, 1, StridedDesc(0, 4, 33), make([]float64, 4)))
			})
			mustPanic(t, `mpi: Accumulate "w" rank 1 [62,66) outside window size 64`, func() {
				Must(p.Accumulate(win, 1, ContigDesc(62, 4), seq(4, 0)))
			})
			// Charge-only paths validate shape too (no window to bound).
			mustPanic(t, "mpi: Charge stride -2 must be positive", func() {
				Must(p.Charge(1, AccessDesc{Elems: 8, Stride: -2}))
			})
			mustPanic(t, "mpi: Charge element count -5 must be non-negative", func() {
				Must(p.Charge(1, AccessDesc{Elems: -5, Stride: 1}))
			})
			// A panicked call charges nothing and moves nothing.
			if got := p.w.cl.Snapshot().CommBytes[0]; got != 0 {
				t.Errorf("validation panics charged %d bytes", got)
			}
		}
		Must(p.Fence(win))
	})
}

// A remote packed descriptor travels the pack transport under the
// put.p/get.p ops, costs exactly the pack model's PackedTime, beats
// the PIO path it replaces, and still reconciles traced bytes with the
// cluster accounting. A rank-local packed descriptor involves no NIC:
// it stays a plain local strided copy.
func TestDescPackedClassificationAndCost(t *testing.T) {
	const elems = 100
	var window []float64
	var mu sync.Mutex
	rec, cl := runTraced(t, 2, "vbus", func(p *Proc) {
		win := p.WinCreate("pk", make([]float64, 512))
		if p.Rank() == 0 {
			d := StridedDesc(0, elems, 3)
			d.Packed = true
			Must(p.Put(win, 1, d, seq(elems, 1000)))
			g := StridedDesc(1, 40, 2)
			g.Packed = true
			Must(p.Get(win, 1, g, make([]float64, 40)))
			l := StridedDesc(0, 20, 2)
			l.Packed = true
			Must(p.Put(win, 0, l, seq(20, 2000)))
		}
		Must(p.Fence(win))
		if p.Rank() == 1 {
			mu.Lock()
			window = append([]float64(nil), win.target(1)...)
			mu.Unlock()
		}
	})
	params := cl.Params()
	pm := nic.PackModel{Card: params.Fabric, MemCopyPerByte: params.CPU.MemCopyPerByte}
	hops := params.Hops(0, 1)
	var sawPutPacked, sawGetPacked, sawLocal bool
	for _, e := range rec.Events() {
		switch {
		case e.Op == trace.OpPutPacked:
			sawPutPacked = true
			if e.Transport != interconnect.TransportPack {
				t.Errorf("put.p on transport %v, want pack", e.Transport)
			}
			if e.Bytes != elems*WordBytes {
				t.Errorf("put.p carried %d bytes, want %d", e.Bytes, elems*WordBytes)
			}
			if got, want := e.Duration(), pm.PackedTime(elems, WordBytes, hops); got != want {
				t.Errorf("put.p cost %v, want PackedTime %v", got, want)
			}
			if pio := pm.PIOTime(elems, WordBytes, hops); e.Duration() >= pio {
				t.Errorf("packed cost %v not below the PIO cost %v it replaces", e.Duration(), pio)
			}
		case e.Op == trace.OpGetPacked:
			sawGetPacked = true
			if e.Transport != interconnect.TransportPack {
				t.Errorf("get.p on transport %v, want pack", e.Transport)
			}
		case e.Op == trace.OpPutStride && e.Transport == interconnect.TransportLocal:
			sawLocal = true
		case e.Transport == interconnect.TransportPack:
			t.Errorf("pack transport carries op %q", e.Op)
		}
	}
	if !sawPutPacked || !sawGetPacked {
		t.Fatalf("packed ops missing from trace: put.p=%v get.p=%v", sawPutPacked, sawGetPacked)
	}
	if !sawLocal {
		t.Error("rank-local packed put was not demoted to a local strided copy")
	}
	for i := 0; i < elems; i++ {
		if got, want := window[3*i], 1000.0+float64(i); got != want {
			t.Fatalf("window[%d] = %v, want %v (packed payload corrupted)", 3*i, got, want)
		}
	}
	checkTraceInvariants(t, rec, cl)
}

// Packing is a transport decision, not a semantic one: the same strided
// workload with and without Packed lands identical window contents,
// and past the crossover the packed run's origin clock is strictly
// earlier.
func TestDescPackedPayloadEquivalence(t *testing.T) {
	const elems = 128 // past the vbus crossover
	run := func(packed bool) ([]float64, *descRun) {
		var obs descRun
		_, cl := runTraced(t, 2, "vbus", func(p *Proc) {
			win := p.WinCreate("pe", make([]float64, 4*elems))
			if p.Rank() == 0 {
				d := StridedDesc(2, elems, 4)
				d.Packed = packed
				Must(p.Put(win, 1, d, seq(elems, 7)))
			}
			Must(p.Fence(win))
			if p.Rank() == 1 {
				obs.mu.Lock()
				obs.window = append([]float64(nil), win.target(1)...)
				obs.mu.Unlock()
			}
		})
		return []float64{float64(cl.Clock(0))}, &obs
	}
	clkPIO, pio := run(false)
	clkPacked, packed := run(true)
	for i := range pio.window {
		if pio.window[i] != packed.window[i] {
			t.Fatalf("window element %d differs: PIO %v, packed %v", i, pio.window[i], packed.window[i])
		}
	}
	if clkPacked[0] >= clkPIO[0] {
		t.Errorf("packed origin clock %v not below PIO clock %v at %d elems", clkPacked[0], clkPIO[0], elems)
	}
}

// Charge runs once per planned transfer on every rank of a timing-mode
// run: on an untraced, fault-free world it must not allocate — on a
// classic fabric, nor on the protocol-switched one once the region is
// registered.
func TestChargeDoesNotAllocate(t *testing.T) {
	for _, fabric := range []string{"vbus", "rdma"} {
		params, err := cluster.ParamsForFabric(fabric)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(2, params)
		if err != nil {
			t.Fatal(err)
		}
		p := NewWorld(cl).Rank(0)
		big := ContigDesc(0, 4096)
		big.Region = "A"
		packed := StridedDesc(0, 64, 3)
		packed.Packed = true
		Must(p.Charge(1, big)) // registers the region on rdma
		for name, d := range map[string]AccessDesc{
			"contig": big, "small": ContigDesc(0, 8), "strided": StridedDesc(0, 64, 3), "packed": packed,
		} {
			if n := testing.AllocsPerRun(100, func() { Must(p.Charge(1, d)) }); n != 0 {
				t.Errorf("%s %s: Charge allocates %v times per call", fabric, name, n)
			}
		}
	}
}

// A window may be created over memory a rank has not allocated yet (a
// Timing-mode run exposes lazily deferred arrays as nil regions).
// Charging an access to such a target is legal — nothing is
// dereferenced — but moving real data through it must fail with a
// structured error naming the window and the target, leave the clocks
// alone, and not panic on an index.
func TestAccessThroughNilRegion(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		var local []float64
		if p.Rank() == 0 {
			local = make([]float64, 8)
		}
		win := p.WinCreate("LAZY", local)
		if p.Rank() != 0 {
			Must(p.Barrier())
			return
		}
		before := p.Wtime()
		data := seq(4, 1)
		for verb, err := range map[string]error{
			"Put":        p.Put(win, 1, ContigDesc(0, 4), data),
			"Get":        p.Get(win, 1, StridedDesc(0, 4, 2), data),
			"Accumulate": p.Accumulate(win, 1, ContigDesc(0, 4), data),
		} {
			me, ok := err.(*Error)
			if !ok {
				t.Errorf("%s through a nil region returned %v, want *Error", verb, err)
				continue
			}
			if me.Kind != ErrNoRegion || me.Win != "LAZY" || me.Rank != 0 || me.Peer != 1 || me.Op != verb {
				t.Errorf("%s: error %+v, want ErrNoRegion on window LAZY, rank 0, peer 1", verb, *me)
			}
			if msg := me.Error(); !strings.Contains(msg, `"LAZY"`) || !strings.Contains(msg, "peer 1") || !strings.Contains(msg, "no-region") {
				t.Errorf("%s: message %q does not name window, target and kind", verb, msg)
			}
		}
		if now := p.Wtime(); now != before {
			t.Errorf("failed accesses charged the clock: %v -> %v", before, now)
		}
		if err := p.Charge(1, ContigDesc(0, 4)); err != nil {
			t.Errorf("Charge to a rank with a nil region: %v", err)
		}
		// The rank's own region is real and still works.
		if err := p.Put(win, 0, ContigDesc(0, 4), data); err != nil || win.Local(0)[3] != 4 {
			t.Errorf("Put into the allocated region: err %v, window %v", err, win.Local(0))
		}
		Must(p.Barrier())
	})
}
