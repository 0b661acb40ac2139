package cluster

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

func newTestCluster(t *testing.T, n int) *Cluster {
	t.Helper()
	c, err := New(n, DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestValidation(t *testing.T) {
	if _, err := New(0, DefaultParams()); err == nil {
		t.Fatal("zero processes accepted")
	}
	if _, err := New(5, DefaultParams()); err == nil {
		t.Fatal("5 processes on a 2x2 mesh accepted")
	}
	p := DefaultParams()
	p.Fabric = nil
	if _, err := New(2, p); err == nil {
		t.Fatal("nil card accepted")
	}
	p = DefaultParams()
	p.MeshWidth = 0
	if _, err := New(1, p); err == nil {
		t.Fatal("zero-width mesh accepted")
	}
}

func TestHops(t *testing.T) {
	c := newTestCluster(t, 4) // 2x2: ranks 0,1 top row; 2,3 bottom
	cases := []struct{ a, b, want int }{
		{0, 0, 0}, {0, 1, 1}, {0, 2, 1}, {0, 3, 2}, {1, 2, 2}, {3, 0, 2},
	}
	for _, cse := range cases {
		if got := c.Hops(cse.a, cse.b); got != cse.want {
			t.Errorf("Hops(%d,%d) = %d, want %d", cse.a, cse.b, got, cse.want)
		}
	}
}

func TestChargeCompute(t *testing.T) {
	c := newTestCluster(t, 2)
	c.ChargeCompute(0, 10*sim.Microsecond)
	c.ChargeCompute(0, 5*sim.Microsecond)
	if c.Clock(0) != 15*sim.Microsecond {
		t.Fatalf("clock = %v", c.Clock(0))
	}
	if c.Clock(1) != 0 {
		t.Fatal("charging rank 0 moved rank 1")
	}
	r := c.Snapshot()
	if r.CompTime[0] != 15*sim.Microsecond || r.CommTime[0] != 0 {
		t.Fatalf("accounting wrong: %+v", r)
	}
}

func TestChargeComm(t *testing.T) {
	c := newTestCluster(t, 2)
	c.ChargeComm(1, 3*sim.Microsecond, 4096)
	r := c.Snapshot()
	if r.CommTime[1] != 3*sim.Microsecond || r.CommBytes[1] != 4096 || r.CommOps[1] != 1 {
		t.Fatalf("accounting wrong: %+v", r)
	}
	if c.Clock(1) != 3*sim.Microsecond {
		t.Fatal("comm charge did not advance clock")
	}
}

func TestBookCommDoesNotAdvanceClock(t *testing.T) {
	c := newTestCluster(t, 1)
	c.BookComm(0, 7*sim.Microsecond, 100)
	if c.Clock(0) != 0 {
		t.Fatal("BookComm advanced the clock")
	}
	if c.Snapshot().CommTime[0] != 7*sim.Microsecond {
		t.Fatal("BookComm did not record comm time")
	}
}

func TestAdvanceTo(t *testing.T) {
	c := newTestCluster(t, 1)
	c.AdvanceTo(0, 10*sim.Microsecond)
	c.AdvanceTo(0, 5*sim.Microsecond) // must not rewind
	if c.Clock(0) != 10*sim.Microsecond {
		t.Fatalf("clock = %v", c.Clock(0))
	}
}

func TestReleaseAndMaxClock(t *testing.T) {
	c := newTestCluster(t, 3)
	c.ChargeCompute(1, 20*sim.Microsecond)
	if c.MaxClock() != 20*sim.Microsecond {
		t.Fatal("MaxClock wrong")
	}
	c.Release([]int{0, 1}, 15*sim.Microsecond, 2*sim.Microsecond, 1)
	if c.Clock(0) != 15*sim.Microsecond || c.Clock(1) != 20*sim.Microsecond || c.Clock(2) != 0 {
		t.Fatal("Release must lift its members but never rewind, and leave the others")
	}
	c.Release([]int{1}, 25*sim.Microsecond, 6*sim.Microsecond, 3)
	r := c.Snapshot()
	for node, ops := range []int64{1, 4, 0} {
		if want := sim.Time(ops) * 2 * sim.Microsecond; r.CommTime[node] != want || r.CommOps[node] != ops {
			t.Fatalf("node %d booked %v in %d ops, want %v in %d", node, r.CommTime[node], r.CommOps[node], want, ops)
		}
	}
}

func TestReset(t *testing.T) {
	c := newTestCluster(t, 2)
	c.ChargeCompute(0, sim.Microsecond)
	c.ChargeComm(1, sim.Microsecond, 10)
	c.Reset()
	r := c.Snapshot()
	if r.ElapsedVirtual() != 0 || r.MaxCommTime() != 0 || r.TotalCommBytes() != 0 {
		t.Fatalf("reset left state: %+v", r)
	}
}

func TestReportAggregates(t *testing.T) {
	c := newTestCluster(t, 4)
	c.ChargeComm(0, 2*sim.Microsecond, 100)
	c.ChargeComm(3, 5*sim.Microsecond, 300)
	c.ChargeCompute(2, 9*sim.Microsecond)
	r := c.Snapshot()
	if r.ElapsedVirtual() != 9*sim.Microsecond {
		t.Fatalf("elapsed = %v", r.ElapsedVirtual())
	}
	if r.MaxCommTime() != 5*sim.Microsecond {
		t.Fatalf("max comm = %v", r.MaxCommTime())
	}
	if r.TotalCommBytes() != 400 {
		t.Fatalf("bytes = %d", r.TotalCommBytes())
	}
	if r.TotalCommOps() != 2 {
		t.Fatalf("ops = %d", r.TotalCommOps())
	}
}

func TestConcurrentCharging(t *testing.T) {
	c := newTestCluster(t, 4)
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.ChargeCompute(rank, sim.Nanosecond)
				c.ChargeComm(rank, sim.Nanosecond, 1)
			}
		}(r)
	}
	wg.Wait()
	for r := 0; r < 4; r++ {
		if c.Clock(r) != 2000*sim.Nanosecond {
			t.Fatalf("rank %d clock = %v", r, c.Clock(r))
		}
	}
}

func TestRankRangePanics(t *testing.T) {
	c := newTestCluster(t, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range rank did not panic")
		}
	}()
	c.Clock(2)
}

func TestNegativeChargePanics(t *testing.T) {
	c := newTestCluster(t, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("negative charge did not panic")
		}
	}()
	c.ChargeCompute(0, -1)
}

func TestTorusHops(t *testing.T) {
	p := DefaultParams()
	p.MeshWidth, p.MeshHeight = 4, 4
	p.Torus = true
	c, err := New(16, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Hops(0, 15); got != 2 {
		t.Fatalf("torus corner hops = %d, want 2", got)
	}
	if got := c.Hops(0, 3); got != 1 {
		t.Fatalf("torus row wrap hops = %d, want 1", got)
	}
}

func TestRecorderAttachment(t *testing.T) {
	c := newTestCluster(t, 2)
	if c.Recorder() != nil {
		t.Fatal("fresh cluster has a recorder attached")
	}
	rec := trace.New()
	c.SetRecorder(rec)
	if c.Recorder() != rec {
		t.Fatal("SetRecorder did not attach")
	}
	c.SetRecorder(nil)
	if c.Recorder() != nil {
		t.Fatal("SetRecorder(nil) did not detach")
	}
}

func TestParamsForFabricUnknownListsBackends(t *testing.T) {
	if _, err := ParamsForFabric(""); err != nil {
		t.Fatalf("empty fabric should mean default: %v", err)
	}
	_, err := ParamsForFabric("nonsense")
	if err == nil {
		t.Fatal("unknown fabric accepted")
	}
	for _, name := range interconnect.Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("error %q does not list registered backend %q", err, name)
		}
	}
}

// TestNodeAccountingOneWriter holds the lock-free accounting to its
// one-writer rule: each of n goroutines makes seeded ChargeComm,
// ChargeCompute, BookComm and AdvanceTo calls on its own node, then
// they meet, and the last to arrive releases every node at the latest
// clock plus a fixed cost. Under -race it checks that the meeting
// orders every release against the nodes' own writes; the snapshot
// must equal a sequential replay of the same calls.
func TestNodeAccountingOneWriter(t *testing.T) {
	const n, rounds, calls = 8, 200, 16
	const cost = 100 * sim.Nanosecond
	nodes := []int{0, 1, 2, 3, 4, 5, 6, 7}
	step := func(c *Cluster, rng *rand.Rand, node int) {
		d := sim.Time(rng.Intn(1000)) * sim.Nanosecond
		switch rng.Intn(4) {
		case 0:
			c.ChargeComm(node, d, rng.Intn(64))
		case 1:
			c.ChargeCompute(node, d)
		case 2:
			c.BookComm(node, d, rng.Intn(64))
		default:
			c.AdvanceTo(node, c.Clock(node)+d)
		}
	}
	release := func(c *Cluster) { c.Release(nodes, c.MaxClock()+cost, cost, 1) }
	p := DefaultParams()
	p.MeshWidth, p.MeshHeight = 4, 2
	want, err := New(n, p)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := New(n, p)

	rngs := make([]*rand.Rand, n)
	for node := range rngs {
		rngs[node] = rand.New(rand.NewSource(int64(node)))
	}
	for range rounds {
		for node, rng := range rngs {
			for range calls {
				step(want, rng, node)
			}
		}
		release(want)
	}

	arrived := make([]atomic.Int64, rounds)
	released := make([]chan struct{}, rounds)
	for k := range released {
		released[k] = make(chan struct{})
	}
	var wg sync.WaitGroup
	for node := range n {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(node)))
			for k := range rounds {
				for range calls {
					step(got, rng, node)
				}
				if arrived[k].Add(1) == n {
					release(got)
					close(released[k])
				}
				<-released[k]
			}
		}()
	}
	wg.Wait()
	if g, w := got.Snapshot(), want.Snapshot(); !reflect.DeepEqual(g, w) {
		t.Fatalf("concurrent accounting %+v, sequential replay %+v", g, w)
	}
}

// DefaultParams builds its V-Bus card once and every machine shares
// it: the shared card must price as a freshly built one does, read by
// several clusters at once.
func TestDefaultCardShared(t *testing.T) {
	a, b := DefaultParams(), DefaultParams()
	if a.Fabric != b.Fabric {
		t.Fatal("two DefaultParams built two cards")
	}
	fresh, err := nic.NewVBus(nic.DefaultVBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := New(4, DefaultParams())
			if err != nil {
				t.Error(err)
				return
			}
			card := c.Fabric()
			for hops := 0; hops <= 3; hops++ {
				for _, n := range []int{1, 8, 100, 4096} {
					if got, want := card.ContigTime(8*n, hops), fresh.ContigTime(8*n, hops); got != want {
						t.Errorf("ContigTime(%d, %d) = %v, a fresh card prices %v", 8*n, hops, got, want)
					}
					if got, want := card.StridedTime(n, 8, hops), fresh.StridedTime(n, 8, hops); got != want {
						t.Errorf("StridedTime(%d, 8, %d) = %v, a fresh card prices %v", n, hops, got, want)
					}
				}
			}
			c.ChargeComm(1, c.CommCost().Msg(4096, 1), 4096)
		}()
	}
	wg.Wait()
}
