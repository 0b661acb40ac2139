package mpi

import (
	"sync"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/sim"
)

// runWorld spawns one goroutine per rank, runs body, and waits.
func runWorld(t *testing.T, n int, body func(p *Proc)) (*World, *cluster.Cluster) {
	t.Helper()
	params := cluster.DefaultParams()
	if n > 4 {
		params.MeshWidth, params.MeshHeight = 4, 4
	}
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
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
	return w, cl
}

func TestRankAndSize(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		if p.Size() != 4 {
			t.Errorf("size = %d", p.Size())
		}
		if p.Rank() < 0 || p.Rank() >= 4 {
			t.Errorf("rank = %d", p.Rank())
		}
	})
}

func TestSendRecv(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			Must(p.Send(1, 7, []float64{1, 2, 3}))
		} else {
			got := must(p.Recv(0, 7))
			if len(got) != 3 || got[0] != 1 || got[2] != 3 {
				t.Errorf("recv got %v", got)
			}
		}
	})
}

func TestSendCopiesPayload(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			buf := []float64{42}
			Must(p.Send(1, 0, buf))
			buf[0] = 0 // must not affect the in-flight message
		} else {
			if got := must(p.Recv(0, 0)); got[0] != 42 {
				t.Errorf("message aliased sender buffer: got %v", got)
			}
		}
	})
}

func TestRecvAdvancesClockToArrival(t *testing.T) {
	_, cl := runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			p.w.cl.ChargeCompute(0, 100*sim.Microsecond) // sender busy first
			Must(p.Send(1, 0, make([]float64, 1024)))
		} else {
			must(p.Recv(0, 0))
		}
	})
	if cl.Clock(1) <= 100*sim.Microsecond {
		t.Fatalf("receiver clock %v should be after sender's send at 100us", cl.Clock(1))
	}
}

func TestMessageOrderingFIFO(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			for i := 0; i < 10; i++ {
				Must(p.Send(1, 3, []float64{float64(i)}))
			}
		} else {
			for i := 0; i < 10; i++ {
				if got := must(p.Recv(0, 3)); got[0] != float64(i) {
					t.Errorf("message %d arrived out of order: %v", i, got)
				}
			}
		}
	})
}

func TestRecvAnySource(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		switch p.Rank() {
		case 1, 2:
			Must(p.Send(0, 5, []float64{float64(p.Rank())}))
		case 0:
			seen := map[float64]bool{}
			for i := 0; i < 2; i++ {
				got := must(p.Recv(AnySource, 5))
				seen[got[0]] = true
			}
			if !seen[1] || !seen[2] {
				t.Errorf("AnySource missed a sender: %v", seen)
			}
		}
	})
}

func TestRecvAnyTag(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			Must(p.Send(1, 9, []float64{9}))
		} else {
			if got := must(p.Recv(0, AnyTag)); got[0] != 9 {
				t.Errorf("AnyTag got %v", got)
			}
		}
	})
}

func TestSendToSelf(t *testing.T) {
	runWorld(t, 1, func(p *Proc) {
		Must(p.Send(0, 1, []float64{5}))
		if got := must(p.Recv(0, 1)); got[0] != 5 {
			t.Errorf("self message got %v", got)
		}
	})
}

func TestSendrecvExchangeNoDeadlock(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		other := 1 - p.Rank()
		got := must(p.Sendrecv(other, 0, []float64{float64(p.Rank())}, other, 0))
		if got[0] != float64(other) {
			t.Errorf("rank %d exchanged got %v", p.Rank(), got)
		}
	})
}

func TestBarrierSynchronizesClocks(t *testing.T) {
	_, cl := runWorld(t, 4, func(p *Proc) {
		p.w.cl.ChargeCompute(p.Rank(), sim.Time(p.Rank()+1)*10*sim.Microsecond)
		Must(p.Barrier())
	})
	want := cl.Clock(0)
	for r := 1; r < 4; r++ {
		if cl.Clock(r) != want {
			t.Fatalf("clocks diverge after barrier: %v vs %v", cl.Clock(r), want)
		}
	}
	if want <= 40*sim.Microsecond {
		t.Fatalf("release %v must exceed the latest arrival 40us", want)
	}
}

func TestBarrierBooksCommTime(t *testing.T) {
	w, cl := runWorld(t, 4, func(p *Proc) { Must(p.Barrier()) })
	r := cl.Snapshot()
	for rank := 0; rank < 4; rank++ {
		if r.CommTime[rank] != w.BarrierCost() {
			t.Fatalf("rank %d barrier comm = %v, want %v", rank, r.CommTime[rank], w.BarrierCost())
		}
	}
}

func TestRepeatedBarriers(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		for i := 0; i < 50; i++ {
			Must(p.Barrier())
		}
	})
}

func TestSingleRankBarrier(t *testing.T) {
	_, cl := runWorld(t, 1, func(p *Proc) { Must(p.Barrier()) })
	if cl.Clock(0) == 0 {
		t.Fatal("1-rank barrier should still cost time")
	}
}

func TestBcast(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		var in []float64
		if p.Rank() == 2 {
			in = []float64{3.5, 4.5}
		}
		out := must(p.Bcast(2, in))
		if len(out) != 2 || out[0] != 3.5 || out[1] != 4.5 {
			t.Errorf("rank %d bcast got %v", p.Rank(), out)
		}
	})
}

func TestBcastResultNotAliased(t *testing.T) {
	results := make([][]float64, 2)
	runWorld(t, 2, func(p *Proc) {
		var in []float64
		if p.Rank() == 0 {
			in = []float64{1}
		}
		results[p.Rank()] = must(p.Bcast(0, in))
	})
	results[0][0] = 99
	if results[1][0] == 99 {
		t.Fatal("bcast results alias each other")
	}
}

func TestReduceSum(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		res := must(p.Reduce(Sum, 0, []float64{float64(p.Rank()), 1}))
		if p.Rank() == 0 {
			if res[0] != 6 || res[1] != 4 {
				t.Errorf("reduce got %v", res)
			}
		} else if res != nil {
			t.Errorf("non-root got %v", res)
		}
	})
}

func TestReduceOps(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		x := float64(p.Rank() + 1) // 1..4
		if mx := must(p.Allreduce(Max, []float64{x})); mx[0] != 4 {
			t.Errorf("max got %v", mx)
		}
		if mn := must(p.Allreduce(Min, []float64{x})); mn[0] != 1 {
			t.Errorf("min got %v", mn)
		}
		if pr := must(p.Allreduce(Prod, []float64{x})); pr[0] != 24 {
			t.Errorf("prod got %v", pr)
		}
	})
}

func TestAllreduceResultOnEveryRank(t *testing.T) {
	runWorld(t, 3, func(p *Proc) {
		res := must(p.Allreduce(Sum, []float64{1}))
		if res[0] != 3 {
			t.Errorf("rank %d allreduce got %v", p.Rank(), res)
		}
	})
}

func TestWinCreatePutGet(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		local := make([]float64, 8)
		win := p.WinCreate("A", local)
		if p.Rank() == 0 {
			putAt(p, win, 1, 2, []float64{7, 8})
		}
		Must(p.Fence(win))
		if p.Rank() == 1 {
			if local[2] != 7 || local[3] != 8 {
				t.Errorf("window after put: %v", local)
			}
		}
		Must(p.Fence(win))
		if p.Rank() == 1 {
			dst := make([]float64, 2)
			getAt(p, win, 1, 2, dst)
			if dst[0] != 7 {
				t.Errorf("self get: %v", dst)
			}
		}
	})
}

func TestPutStrided(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		local := make([]float64, 10)
		win := p.WinCreate("S", local)
		if p.Rank() == 0 {
			putStride(p, win, 1, 1, 3, []float64{1, 2, 3})
		}
		Must(p.Fence(win))
		if p.Rank() == 1 {
			want := []float64{0, 1, 0, 0, 2, 0, 0, 3, 0, 0}
			for i, v := range want {
				if local[i] != v {
					t.Errorf("strided put result %v, want %v", local, want)
					break
				}
			}
		}
	})
}

func TestGetStrided(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		local := make([]float64, 10)
		if p.Rank() == 0 {
			for i := range local {
				local[i] = float64(i)
			}
		}
		win := p.WinCreate("G", local)
		Must(p.Fence(win))
		if p.Rank() == 1 {
			dst := make([]float64, 3)
			getStride(p, win, 0, 1, 4, dst)
			if dst[0] != 1 || dst[1] != 5 || dst[2] != 9 {
				t.Errorf("strided get %v", dst)
			}
		}
	})
}

// §2.2: strided PUT/GET "increase communication setup time
// significantly" — the strided path must cost far more per byte.
func TestStridedPutCostsMoreThanContig(t *testing.T) {
	_, clA := runWorld(t, 2, func(p *Proc) {
		local := make([]float64, 20000)
		win := p.WinCreate("x", local)
		if p.Rank() == 0 {
			putAt(p, win, 1, 0, make([]float64, 8192))
		}
		Must(p.Fence(win))
	})
	_, clB := runWorld(t, 2, func(p *Proc) {
		local := make([]float64, 20000)
		win := p.WinCreate("x", local)
		if p.Rank() == 0 {
			putStride(p, win, 1, 0, 2, make([]float64, 8192))
		}
		Must(p.Fence(win))
	})
	contig := clA.Snapshot().CommTime[0]
	strided := clB.Snapshot().CommTime[0]
	if strided < 2*contig {
		t.Fatalf("strided comm %v should dwarf contiguous %v", strided, contig)
	}
}

func TestPutBoundsPanic(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("b", make([]float64, 4))
		if p.Rank() == 0 {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("out-of-bounds put did not panic")
					}
				}()
				putAt(p, win, 1, 3, []float64{1, 2})
			}()
		}
		Must(p.Fence(win))
	})
}

func TestAccumulate(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		local := make([]float64, 1)
		win := p.WinCreate("acc", local)
		accumAt(p, win, 0, 0, []float64{float64(p.Rank() + 1)})
		Must(p.Fence(win))
		if p.Rank() == 0 && local[0] != 10 {
			t.Errorf("accumulate total = %v, want 10", local[0])
		}
	})
}

func TestLockUnlockCriticalSection(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		shared := make([]float64, 1)
		win := p.WinCreate("crit", shared)
		for i := 0; i < 25; i++ {
			Must(p.Lock(win, 0))
			v := make([]float64, 1)
			getAt(p, win, 0, 0, v)
			v[0]++
			putAt(p, win, 0, 0, v)
			p.Unlock(win, 0)
		}
		Must(p.Fence(win))
		if p.Rank() == 0 && shared[0] != 100 {
			t.Errorf("critical section lost updates: %v", shared[0])
		}
	})
}

// The fence invariant from DESIGN.md: after a fence, every window
// reflects all PUTs issued before it, and no rank's clock is behind any
// transfer's landing time.
func TestFenceCompletesAllPuts(t *testing.T) {
	const n = 4
	_, cl := runWorld(t, n, func(p *Proc) {
		local := make([]float64, n)
		win := p.WinCreate("f", local)
		// Everyone puts its rank into everyone's window slot.
		for dst := 0; dst < n; dst++ {
			putAt(p, win, dst, p.Rank(), []float64{float64(p.Rank() + 1)})
		}
		Must(p.Fence(win))
		for i := 0; i < n; i++ {
			if local[i] != float64(i+1) {
				t.Errorf("rank %d window slot %d = %v after fence", p.Rank(), i, local[i])
			}
		}
	})
	// All clocks equal after fence.
	for r := 1; r < n; r++ {
		if cl.Clock(r) != cl.Clock(0) {
			t.Fatalf("clocks diverge after fence")
		}
	}
}

func TestChargeOnlyHelpersMatchRealCosts(t *testing.T) {
	_, clReal := runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("c", make([]float64, 4096))
		if p.Rank() == 0 {
			putAt(p, win, 1, 0, make([]float64, 4096))
			putStride(p, win, 1, 0, 2, make([]float64, 2048))
		}
		Must(p.Fence(win))
	})
	_, clCharge := runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("c", make([]float64, 4096))
		if p.Rank() == 0 {
			chargeContig(p, 1, 4096)
			chargeStride(p, 1, 2048)
		}
		Must(p.Fence(win))
	})
	if clReal.Snapshot().CommTime[0] != clCharge.Snapshot().CommTime[0] {
		t.Fatalf("charge-only cost %v differs from real cost %v",
			clCharge.Snapshot().CommTime[0], clReal.Snapshot().CommTime[0])
	}
}

func TestWinFree(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("tmp", make([]float64, 1))
		p.WinFree(win)
		// Recreating under the same name must work.
		win2 := p.WinCreate("tmp", make([]float64, 2))
		if len(win2.Local(p.Rank())) != 2 {
			t.Error("stale window returned after free")
		}
	})
}

func TestWtimeMonotone(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		t0 := p.Wtime()
		Must(p.Barrier())
		t1 := p.Wtime()
		if t1 <= t0 {
			t.Errorf("Wtime not monotone: %v -> %v", t0, t1)
		}
	})
}

func TestSendRecvRegion(t *testing.T) {
	runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			Must(p.SendRegion(1, 7, 3, []float64{1, 2, 3}))
		} else {
			got := must(p.RecvRegion(0, 7, 3))
			if len(got) != 3 || got[2] != 3 {
				t.Errorf("region payload = %v", got)
			}
		}
	})
}

func TestSendRegionNilPayloadTimingOnly(t *testing.T) {
	_, cl := runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			Must(p.SendRegion(1, 0, 1024, nil))
		} else {
			got := must(p.RecvRegion(0, 0, 1024))
			if len(got) != 0 {
				t.Errorf("nil payload should arrive empty, got %d", len(got))
			}
		}
	})
	if cl.Snapshot().CommTime[0] <= 0 {
		t.Fatal("timing-only region send charged nothing")
	}
}

// Two-sided costs strictly more than the equivalent one-sided PUT: the
// pack/unpack copies plus the receiver's involvement.
func TestRegionCostExceedsPut(t *testing.T) {
	_, clPut := runWorld(t, 2, func(p *Proc) {
		win := p.WinCreate("x", make([]float64, 8192))
		if p.Rank() == 0 {
			putAt(p, win, 1, 0, make([]float64, 8192))
		}
		Must(p.Fence(win))
	})
	_, clReg := runWorld(t, 2, func(p *Proc) {
		if p.Rank() == 0 {
			Must(p.SendRegion(1, 0, 8192, make([]float64, 8192)))
		} else {
			must(p.RecvRegion(0, 0, 8192))
		}
		Must(p.Barrier())
	})
	put := clPut.Snapshot().CommTime[0]
	reg := clReg.Snapshot().CommTime[0] + clReg.Snapshot().CommTime[1] -
		clPut.Snapshot().CommTime[1] // subtract the barrier share
	if reg <= put {
		t.Fatalf("two-sided region (%v) should cost more than one-sided put (%v)", reg, put)
	}
}

// Fence soundness depends on transfers being charged fully to the
// origin: after any sequence of puts and a fence, no rank's clock may
// be behind the landing time of any transfer it observed.
func TestFenceClockSoundnessUnderLoad(t *testing.T) {
	const n = 4
	runWorld(t, n, func(p *Proc) {
		local := make([]float64, 256)
		win := p.WinCreate("load", local)
		for round := 0; round < 5; round++ {
			// Everyone puts a round-stamped value everywhere.
			for dst := 0; dst < n; dst++ {
				putAt(p, win, dst, p.Rank()*8, []float64{float64(round*100 + p.Rank())})
			}
			Must(p.Fence(win))
			// After the fence, every slot must hold this round's stamp.
			for r := 0; r < n; r++ {
				if got := local[r*8]; got != float64(round*100+r) {
					t.Errorf("round %d rank %d slot %d = %v", round, p.Rank(), r, got)
				}
			}
			Must(p.Fence(win))
		}
	})
}

// Interleaved strided and contiguous puts to adjacent regions must not
// corrupt each other (apply-lock coverage).
func TestMixedPutsInterleaved(t *testing.T) {
	runWorld(t, 4, func(p *Proc) {
		local := make([]float64, 64)
		win := p.WinCreate("mix", local)
		if p.Rank() != 0 {
			base := (p.Rank() - 1) * 20
			putAt(p, win, 0, base, []float64{1, 2, 3, 4, 5})
			putStride(p, win, 0, base+5, 3, []float64{9, 9, 9})
		}
		Must(p.Fence(win))
		if p.Rank() == 0 {
			for r := 0; r < 3; r++ {
				base := r * 20
				for i, want := range []float64{1, 2, 3, 4, 5} {
					if local[base+i] != want {
						t.Errorf("contig slot %d = %v", base+i, local[base+i])
					}
				}
				for k := 0; k < 3; k++ {
					if local[base+5+k*3] != 9 {
						t.Errorf("strided slot %d = %v", base+5+k*3, local[base+5+k*3])
					}
				}
			}
		}
	})
}

// must unwraps a value-returning verb in rank bodies that treat a
// fault as fatal (Must is its error-only form).
func must[T any](v T, err error) T {
	Must(err)
	return v
}
