package mpi

import (
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// meshWorld builds an n-rank world on a side×side mesh with the fault
// spec attached (none when spec is empty).
func meshWorld(t testing.TB, n, side int, spec string) *World {
	t.Helper()
	params := cluster.DefaultParams()
	params.MeshWidth, params.MeshHeight = side, side
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
	return NewWorld(cl)
}

// TestParkedCollectiveWakePaths pins every way a rank parked in a
// collective is woken without a release: ranks 1…63 of a 64-rank world
// park in the collective, and once all of them have arrived rank 0
// cancels, revokes, crashes or simply never comes (deadline runs, with
// the watchdog shrunk). Every waiter must return the matching Kind,
// timed at its entry clock — or, for a timeout, at entry + deadline.
func TestParkedCollectiveWakePaths(t *testing.T) {
	const P = 64
	shrinkWatchdog(t)
	colls := []struct {
		op  string
		run func(p *Proc) error
	}{
		{trace.OpBarrier, func(p *Proc) error { return p.Barrier() }},
		{trace.OpAllreduce, func(p *Proc) error {
			_, err := p.Allreduce(Sum, []float64{float64(p.Rank())})
			return err
		}},
	}
	wakes := []struct {
		name string
		spec string
		kind ErrorKind
		at   sim.Time
		// rank0 runs once every other rank is parked.
		rank0 func(p *Proc) error
	}{
		{"cancel", "", ErrCancelled, 0, func(p *Proc) error { p.w.Cancel(); return nil }},
		{"revoke", "", ErrRevoked, 0, func(p *Proc) error { p.w.Revoke(); return nil }},
		{"peer-crash", "seed=0,crashafter=0/0", ErrPeerCrashed, 0, func(p *Proc) error { return p.Barrier() }},
		{"timeout", "deadline=1ms", ErrTimeout, sim.Millisecond, func(p *Proc) error { return nil }},
	}
	for _, c := range colls {
		for _, wk := range wakes {
			t.Run(c.op+"/"+wk.name, func(t *testing.T) {
				w := meshWorld(t, P, 8, wk.spec)
				defer w.Shutdown()
				errs := make([]error, P)
				var wg sync.WaitGroup
				for r := 1; r < P; r++ {
					wg.Add(1)
					go func(p *Proc) {
						defer wg.Done()
						errs[p.Rank()] = c.run(p)
					}(w.Rank(r))
				}
				for parked := false; !parked; {
					w.mu.Lock()
					parked = w.arrived == P-1
					w.mu.Unlock()
					runtime.Gosched()
				}
				if err := wk.rank0(w.Rank(0)); err != nil {
					w.Depart(0)
				}
				wg.Wait()
				for r := 1; r < P; r++ {
					var me *Error
					if !errors.As(errs[r], &me) {
						t.Fatalf("rank %d: got %v, want *mpi.Error", r, errs[r])
					}
					if me.Kind != wk.kind || me.Rank != r || me.Op != c.op || me.Peer != -1 || me.Time != wk.at {
						t.Fatalf("rank %d: got %+v, want %s at %v", r, *me, wk.kind, wk.at)
					}
				}
			})
		}
	}
}

// TestCollectiveSlotReuse is the stress test of the alternating
// generation slots: 10 000 back-to-back Allreduces at P = 8, each rank
// yielding at random and charging a rank- and round-dependent compute
// before every one. Every rank must get every round's sum, and every
// round must release all ranks at the same clock: the latest arrival
// plus one fixed collective cost.
func TestCollectiveSlotReuse(t *testing.T) {
	const P, rounds = 8, 10000
	w := meshWorld(t, P, 4, "")
	compute := func(rank, i int) sim.Time { return sim.Time((rank*7919+i*104729)%1000) * sim.Nanosecond }
	released := make([][]sim.Time, P)
	var wg sync.WaitGroup
	for r := 0; r < P; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(p.Rank())))
			released[p.Rank()] = make([]sim.Time, rounds)
			for i := 0; i < rounds; i++ {
				if rng.Intn(2) == 0 {
					runtime.Gosched()
				}
				w.cl.ChargeCompute(p.node(), compute(p.Rank(), i))
				got, err := p.Allreduce(Sum, []float64{float64(p.Rank() + i)})
				if want := float64(P*(P-1)/2 + P*i); err != nil || len(got) != 1 || got[0] != want {
					// Cancelling unparks the other ranks instead of
					// leaving them waiting for this one.
					t.Errorf("rank %d round %d: got %v, %v, want [%v]", p.Rank(), i, got, err, want)
					w.Cancel()
					return
				}
				released[p.Rank()][i] = p.Wtime()
			}
		}(w.Rank(r))
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	var prev, cost sim.Time
	for i := 0; i < rounds; i++ {
		var latest sim.Time
		for r := 0; r < P; r++ {
			if released[r][i] != released[0][i] {
				t.Fatalf("round %d: rank %d released at %v, rank 0 at %v", i, r, released[r][i], released[0][i])
			}
			latest = max(latest, prev+compute(r, i))
		}
		if i == 0 {
			cost = released[0][0] - latest
		}
		if got := released[0][i] - latest; got != cost || cost <= 0 {
			t.Fatalf("round %d: released %v after the latest arrival, want %v", i, got, cost)
		}
		prev = released[0][i]
	}
}

// BenchmarkBarrier1024 is the rendezvous on its own at the scale
// workload's size: 27 barriers — one timing run of SWIM 1024² makes 27
// collectives per rank — on a fresh 1024-rank world.
func BenchmarkBarrier1024(b *testing.B) {
	const P, barriers = 1024, 27
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := meshWorld(b, P, 32, "")
		var wg sync.WaitGroup
		for r := 0; r < P; r++ {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				for k := 0; k < barriers; k++ {
					Must(p.Barrier())
				}
			}(w.Rank(r))
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*barriers), "ns/barrier")
}
