package commcost_test

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/golden"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/trace"
)

// chargeFaults is the fault dimension of the charge table: a clean
// machine, a virtual bus that fails half of its acquisitions, and one
// link outage that stalls every broadcast begun in its first
// millisecond.
var chargeFaults = []struct{ name, spec string }{
	{"clean", ""},
	{"busfail", "seed=7,busfail=0.5"},
	{"linkdown", "seed=7,linkdown=0-1@0ps+1ms"},
}

// chargeCase is one verb of the charge table. run is called on every
// rank of the world at once, after a window exists; coord, when set,
// is called once from outside the ranks instead, on a world whose last
// rank has crashed.
type chargeCase struct {
	name  string
	run   func(p *mpi.Proc, win *mpi.Win) error
	coord func(w *mpi.World)
}

// chargeCases lists every synchronising and collective verb: barrier,
// fence, a lock round trip to the nearest and the farthest rank,
// broadcast, reduce and allreduce at four sizes, checkpoint and
// recovery rounds empty and at 1 MiB, and the survivors' agreement.
func chargeCases(params cluster.Params, nodes []int) []chargeCase {
	geo := params.Geometry()
	near, far := 0, 0
	for r := range nodes {
		h := geo.Hops(nodes[0], nodes[r])
		if r > 0 && (near == 0 || h < geo.Hops(nodes[0], nodes[near])) {
			near = r
		}
		if h > geo.Hops(nodes[0], nodes[far]) {
			far = r
		}
	}
	lock := func(target int) func(p *mpi.Proc, win *mpi.Win) error {
		return func(p *mpi.Proc, win *mpi.Win) error {
			if p.Rank() != 0 {
				return nil
			}
			if err := p.Lock(win, target); err != nil {
				return err
			}
			p.Unlock(win, target)
			return nil
		}
	}
	cases := []chargeCase{
		{name: "Barrier", run: func(p *mpi.Proc, _ *mpi.Win) error { return p.Barrier() }},
		{name: "Fence", run: func(p *mpi.Proc, win *mpi.Win) error { return p.Fence(win) }},
		{name: fmt.Sprintf("Lock/near hops=%d", geo.Hops(nodes[0], nodes[near])), run: lock(near)},
		{name: fmt.Sprintf("Lock/far hops=%d", geo.Hops(nodes[0], nodes[far])), run: lock(far)},
	}
	for _, words := range []int{0, 1, 117, 4096} {
		data := func() []float64 { return make([]float64, words) }
		cases = append(cases,
			chargeCase{name: fmt.Sprintf("Bcast words=%d", words), run: func(p *mpi.Proc, _ *mpi.Win) error {
				var in []float64
				if p.Rank() == 0 {
					in = data()
				}
				_, err := p.Bcast(0, in)
				return err
			}},
			chargeCase{name: fmt.Sprintf("Reduce words=%d", words), run: func(p *mpi.Proc, _ *mpi.Win) error {
				_, err := p.Reduce(mpi.Sum, 0, data())
				return err
			}},
			chargeCase{name: fmt.Sprintf("Allreduce words=%d", words), run: func(p *mpi.Proc, _ *mpi.Win) error {
				_, err := p.Allreduce(mpi.Sum, data())
				return err
			}})
	}
	for _, size := range []int{0, 1 << 20} {
		root := func(p *mpi.Proc) int {
			if p.Rank() == 0 {
				return size
			}
			return 0
		}
		cases = append(cases,
			chargeCase{name: fmt.Sprintf("Checkpoint bytes=%d", size), run: func(p *mpi.Proc, _ *mpi.Win) error { return p.Checkpoint(root(p)) }},
			chargeCase{name: fmt.Sprintf("Recover bytes=%d", size), run: func(p *mpi.Proc, _ *mpi.Win) error { return p.Recover(root(p)) }})
	}
	return append(cases, chargeCase{name: "Agree", coord: func(w *mpi.World) { w.Agree() }})
}

// onRanks runs f on every rank of w concurrently and returns the first
// error.
func onRanks(w *mpi.World, f func(p *mpi.Proc) error) error {
	errs := make([]error, w.Size())
	var wg sync.WaitGroup
	for r := range errs {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			errs[r] = f(w.Rank(r))
		}(r)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// chargeLine runs one case on a fresh machine and renders what it
// charged: per rank, the comm time booked by the verb in picoseconds
// and the transport classes of the events it traced, runs of equal
// ranks collapsed to one range.
func chargeLine(t *testing.T, params cluster.Params, procs int, nodes []int, spec string, c chargeCase) string {
	t.Helper()
	if c.coord != nil && len(nodes) > 1 {
		if spec == "" {
			spec = "seed=7"
		}
		spec += fmt.Sprintf(",crash=%d@0ps", nodes[len(nodes)-1])
	}
	if spec != "" {
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatal(err)
		}
		params.Faults = inj
	}
	cl, err := cluster.New(procs, params)
	if err != nil {
		t.Fatal(err)
	}
	w := mpi.NewWorldOver(cl, nodes)
	defer w.Shutdown()
	wins := make([]*mpi.Win, len(nodes))
	if c.coord == nil {
		if err := onRanks(w, func(p *mpi.Proc) error {
			wins[p.Rank()] = p.WinCreate("W", make([]float64, 8))
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	rec := trace.New()
	cl.SetRecorder(rec)
	before := cl.Snapshot().CommTime
	if c.coord != nil {
		c.coord(w)
	} else if err := onRanks(w, func(p *mpi.Proc) error { return c.run(p, wins[p.Rank()]) }); err != nil {
		t.Fatalf("%s: %v", c.name, err)
	}
	after := cl.Snapshot().CommTime
	trs := map[int][]string{}
	for _, e := range rec.Events() {
		trs[e.Rank] = append(trs[e.Rank], e.Transport.String())
	}
	cells := make([]string, len(nodes))
	for r, nd := range nodes {
		tr := "-"
		if len(trs[nd]) > 0 {
			tr = strings.Join(trs[nd], "+")
		}
		cells[r] = fmt.Sprintf("%d/%s", int64(after[nd]-before[nd]), tr)
	}
	var out []string
	for lo := 0; lo < len(cells); {
		hi := lo
		for hi+1 < len(cells) && cells[hi+1] == cells[lo] {
			hi++
		}
		if hi == lo {
			out = append(out, fmt.Sprintf("r%d=%s", lo, cells[lo]))
		} else {
			out = append(out, fmt.Sprintf("r%d-%d=%s", lo, hi, cells[lo]))
		}
		lo = hi + 1
	}
	return strings.Join(out, " ")
}

// TestChargesMatchGolden pins every charge the runtime books outside a
// data transfer — barrier, fence, lock, the three collectives,
// checkpoint, recovery and agreement — on every fabric, at seven world
// sizes, on the full world and on one shrunk by node 1, clean and under
// two fault schedules: one line per case in testdata/charge_golden.txt.
// It closes with the §2 microbenchmark's latency and Ethernet-tree
// columns.
func TestChargesMatchGolden(t *testing.T) {
	var out bytes.Buffer
	for _, fabric := range fabrics {
		for _, procs := range []int{1, 2, 3, 4, 7, 8, 64} {
			params, err := cluster.ParamsForFabric(fabric)
			if err != nil {
				t.Fatal(err)
			}
			if params.MeshWidth*params.MeshHeight < procs {
				params.MeshWidth, params.MeshHeight = core.MeshFor(procs)
			}
			full := make([]int, procs)
			for nd := range full {
				full[nd] = nd
			}
			worlds := [][]int{full}
			if procs > 1 {
				worlds = append(worlds, append([]int{0}, full[2:]...))
			}
			for i, nodes := range worlds {
				for _, faults := range chargeFaults {
					for _, c := range chargeCases(params, nodes) {
						fmt.Fprintf(&out, "%s P=%d %s %s %s: %s\n", fabric, procs, []string{"full", "shrunk"}[i], faults.name, c.name,
							chargeLine(t, params, procs, nodes, faults.spec, c))
					}
				}
			}
		}
	}
	micro, err := bench.RunMicro()
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&out, "micro latency: vbus=%d ethernet=%d\n", int64(micro.LatencyVBus), int64(micro.LatencyEthernet))
	for _, b := range micro.Broadcast {
		fmt.Fprintf(&out, "micro ethernet-tree bytes=%d: %d\n", b.Bytes, int64(b.Ethernet))
	}
	golden.Check(t, "testdata/charge_golden.txt", out.Bytes())
}
