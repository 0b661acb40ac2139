package mpi

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
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
				for w.arrived.Load() != P-1 {
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

// TestRendezvousAbortRace races the lock-free arrival against every
// abort. For each of 500 seeds a 64-rank world runs rounds of barriers
// and Allreduces; when a seeded rank reaches a seeded round, another
// goroutine cancels or revokes the world or departs a seeded rank.
// Every rank must return. A round releases every rank or none: all
// ranks complete the same rounds, each Allreduce with the round's sum,
// and then every rank fails that round's collective with the abort's
// kind.
func TestRendezvousAbortRace(t *testing.T) {
	const P, rounds, seeds = 64, 4, 500
	aborts := []struct {
		kind ErrorKind
		run  func(w *World, victim int)
	}{
		{ErrCancelled, func(w *World, _ int) { w.Cancel() }},
		{ErrRevoked, func(w *World, _ int) { w.Revoke() }},
		{ErrPeerCrashed, func(w *World, victim int) { w.Depart(victim) }},
	}
	ops := []string{trace.OpBarrier, trace.OpAllreduce}
	for seed := range seeds {
		rng := rand.New(rand.NewSource(int64(seed)))
		ab := aborts[seed%len(aborts)]
		trigger, at, victim := rng.Intn(P), rng.Intn(rounds), rng.Intn(P)
		w := meshWorld(t, P, 8, "")
		completed := make([]int, P)
		errs := make([]error, P)
		var wg, aborter sync.WaitGroup
		for r := range P {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				for i := range rounds {
					if p.Rank() == trigger && i == at {
						aborter.Add(1)
						go func() { defer aborter.Done(); ab.run(w, victim) }()
					}
					var err error
					if i%2 == 0 {
						err = p.Barrier()
					} else {
						var got []float64
						got, err = p.Allreduce(Sum, []float64{float64(p.Rank() + i)})
						if want := float64(P*(P-1)/2 + P*i); err == nil && (len(got) != 1 || got[0] != want) {
							t.Errorf("seed %d rank %d round %d: sum %v, want [%v]", seed, p.Rank(), i, got, want)
						}
					}
					if err != nil {
						errs[p.Rank()] = err
						return
					}
					completed[p.Rank()]++
				}
			}(w.Rank(r))
		}
		wg.Wait()
		aborter.Wait()
		w.Shutdown()
		for r := range P {
			if completed[r] != completed[0] {
				t.Fatalf("seed %d: rank %d completed %d rounds, rank 0 %d", seed, r, completed[r], completed[0])
			}
			if completed[r] == rounds {
				continue
			}
			var me *Error
			if op := ops[completed[r]%2]; !errors.As(errs[r], &me) || me.Kind != ab.kind || me.Rank != r || me.Op != op {
				t.Fatalf("seed %d rank %d: got %v, want %s in %s", seed, r, errs[r], ab.kind, op)
			}
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

// rendezvousRun is what a run of runRendezvous leaves: the cluster's
// accounting, the recorded events (nil untraced) and every rank's
// error.
type rendezvousRun struct {
	rep    cluster.Report
	events []trace.Event
	errs   []error
}

// runRendezvous runs body on every rank of an n-rank world with the
// fault spec attached (none when empty) and, if traced, a recorder.
// Each rank first computes for a rank-dependent time, so the ranks
// arrive at body's first rendezvous at different clocks. A failing rank
// departs, as the interpreter's ranks do.
func runRendezvous(t *testing.T, n int, spec string, traced bool, body func(p *Proc) error) rendezvousRun {
	t.Helper()
	w := meshWorld(t, n, 2, spec)
	var rec *trace.Recorder
	if traced {
		rec = trace.New()
		w.cl.SetRecorder(rec)
	}
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(p *Proc) {
			defer wg.Done()
			w.cl.ChargeCompute(p.node(), sim.Time(3*p.Rank()+1)*sim.Microsecond)
			if errs[p.Rank()] = body(p); errs[p.Rank()] != nil {
				w.Depart(p.Rank())
			}
		}(w.Rank(r))
	}
	wg.Wait()
	w.Shutdown()
	return rendezvousRun{w.cl.Snapshot(), rec.Events(), errs}
}

// sameRendezvous fails unless got left exactly what want left.
func sameRendezvous(t *testing.T, got, want rendezvousRun) {
	t.Helper()
	if !reflect.DeepEqual(got.rep, want.rep) {
		t.Errorf("report %+v, want %+v", got.rep, want.rep)
	}
	if !reflect.DeepEqual(got.events, want.events) {
		t.Errorf("events %+v, want %+v", got.events, want.events)
	}
	if !reflect.DeepEqual(got.errs, want.errs) {
		t.Errorf("errors %v, want %v", got.errs, want.errs)
	}
}

// repeatedBarrier is k Barrier calls, stopping at the first failure.
func repeatedBarrier(k int) func(p *Proc) error {
	return func(p *Proc) error {
		for range k {
			if err := p.Barrier(); err != nil {
				return err
			}
		}
		return nil
	}
}

// TestBarriersEqualsRepeatedBarrier: one Barriers(k) rendezvous leaves
// exactly what k Barrier calls leave — clocks, comm time, comm ops,
// every traced event — on one rank and on four, traced and untraced.
// On a world with a fault injector whose crashafter budget runs out at
// the second of three barriers, every rank fails with the error the
// one-by-one calls give it: the victim crashed at that barrier's entry,
// its peers with a crashed peer.
func TestBarriersEqualsRepeatedBarrier(t *testing.T) {
	for _, n := range []int{1, 4} {
		for _, k := range []int{0, 1, 3} {
			for _, traced := range []bool{false, true} {
				t.Run(fmt.Sprintf("n=%d/k=%d/traced=%v", n, k, traced), func(t *testing.T) {
					want := runRendezvous(t, n, "", traced, repeatedBarrier(k))
					got := runRendezvous(t, n, "", traced, func(p *Proc) error { return p.Barriers(k) })
					sameRendezvous(t, got, want)
					if traced && len(want.events) != n*k {
						t.Errorf("%d events, want %d", len(want.events), n*k)
					}
				})
			}
		}
		t.Run(fmt.Sprintf("n=%d/crashafter", n), func(t *testing.T) {
			spec := fmt.Sprintf("seed=0,crashafter=%d/1", n-1)
			want := runRendezvous(t, n, spec, true, repeatedBarrier(3))
			got := runRendezvous(t, n, spec, true, func(p *Proc) error { return p.Barriers(3) })
			sameRendezvous(t, got, want)
			for r, err := range want.errs {
				var me *Error
				if !errors.As(err, &me) || me.Op != trace.OpBarrier || (r == n-1) != (me.Kind == ErrCrashed) {
					t.Errorf("rank %d: error %v, want the second barrier's crash", r, err)
				}
			}
		})
	}
}

// TestExposedWindowsAfterBarriers: windows whose regions are exposed
// rank by rank and completed by one Barriers call serve the same reads
// as WinCreate's, at the same virtual cost. Under -race it checks that
// the rendezvous orders every rank's unlocked Expose before any peer's
// access.
func TestExposedWindowsAfterBarriers(t *testing.T) {
	const n, wins = 4, 3
	names := []string{"A", "B", "C"}
	region := func(rank, i int) []float64 { return []float64{float64(10*rank + i), float64(-rank)} }
	readAll := func(p *Proc, ws []*Win) error {
		for i, win := range ws {
			peer := (p.Rank() + 1) % n
			dst := make([]float64, 2)
			getAt(p, win, peer, 0, dst)
			if want := region(peer, i); !reflect.DeepEqual(dst, want) {
				return fmt.Errorf("rank %d read %v from %s on rank %d, want %v", p.Rank(), dst, names[i], peer, want)
			}
		}
		return nil
	}
	want := runRendezvous(t, n, "", true, func(p *Proc) error {
		ws := make([]*Win, wins)
		for i := range ws {
			ws[i] = p.WinCreate(names[i], region(p.Rank(), i))
		}
		return readAll(p, ws)
	})
	got := runRendezvous(t, n, "", true, func(p *Proc) error {
		ws := make([]*Win, wins)
		for i := range ws {
			ws[i] = p.World().Win(names[i])
			ws[i].Expose(p.Rank(), region(p.Rank(), i))
		}
		if err := p.Barriers(wins); err != nil {
			return err
		}
		return readAll(p, ws)
	})
	sameRendezvous(t, got, want)
}

// BenchmarkBarrier1024 is the rendezvous on its own at the scale
// workload's size: one timing run of SWIM 1024² meets 18 times per rank
// — window creation's ten barriers in one Barriers call, then 17
// region barriers — on a fresh 1024-rank world.
func BenchmarkBarrier1024(b *testing.B) {
	const P, windows, barriers = 1024, 10, 17
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w := meshWorld(b, P, 32, "")
		var wg sync.WaitGroup
		for r := 0; r < P; r++ {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				Must(p.Barriers(windows))
				for k := 0; k < barriers; k++ {
					Must(p.Barrier())
				}
			}(w.Rank(r))
		}
		wg.Wait()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*(1+barriers)), "ns/rendezvous")
}
