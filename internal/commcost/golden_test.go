package commcost_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/golden"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/trace"
)

// fabrics is every registered backend the oracle pins.
var fabrics = []string{"vbus", "ethernet", "ideal", "vbus3d", "rdma"}

// transportPs renders the per-transport-class time of a recorded run
// as a JSON object in transport order.
func transportPs(rec *trace.Recorder) string {
	var ps [interconnect.NumTransports]int64
	for _, e := range rec.Events() {
		ps[e.Transport] += int64(e.Duration())
	}
	var parts []string
	for tr, v := range ps {
		if v != 0 {
			parts = append(parts, fmt.Sprintf("%q:%d", interconnect.Transport(tr), v))
		}
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// TestRunsMatchGolden replays every testdata program on every fabric
// at P in {2,4}, every grain, coalesce on and off, in push, pull-scatter
// and two-sided mode (timing), and compares elapsed time, transfer
// time, comm ops, comm bytes and per-transport-class time against the
// figures recorded from the three pre-kernel copies of the pricing rule.
func TestRunsMatchGolden(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	modes := []struct {
		name           string
		pull, twoSided bool
	}{{"push", false, false}, {"pull", true, false}, {"twosided", false, true}}
	var out bytes.Buffer
	out.WriteString("{\n")
	first := true
	for _, fabric := range fabrics {
		for _, file := range files {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			for _, procs := range []int{2, 4} {
				for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
					for _, coalesce := range []bool{false, true} {
						for _, m := range modes {
							key := fmt.Sprintf("%s/%s/P%d/%s/coalesce=%v/%s",
								fabric, filepath.Base(file), procs, grain, coalesce, m.name)
							rec := trace.New()
							c, err := core.Compile(string(src), core.Options{
								NumProcs: procs, Grain: grain, Fabric: fabric, Coalesce: coalesce,
								PullScatter: m.pull, TwoSided: m.twoSided, Recorder: rec,
							})
							if err != nil {
								t.Fatalf("%s: compile: %v", key, err)
							}
							res, err := c.RunParallel(core.Timing)
							if err != nil {
								t.Fatalf("%s: run: %v", key, err)
							}
							if !first {
								out.WriteString(",\n")
							}
							first = false
							fmt.Fprintf(&out, `%q:{"elapsed_ps":%d,"xfer_ps":%d,"comm_ops":%d,"comm_bytes":%d,"transport_ps":%s}`,
								key, int64(res.Elapsed), int64(res.Report.TotalXferTime()),
								res.Report.TotalCommOps(), res.Report.TotalCommBytes(), transportPs(rec))
						}
					}
				}
			}
		}
	}
	out.WriteString("\n}\n")
	golden.Check(t, "testdata/price_golden.json", out.Bytes())
}

// accessCase is one single-access cell of the direct table.
type accessCase struct {
	fabric       string
	shape, cache string
	proto        lmad.Protocol
	target       int
	elems        int64
}

// desc builds the case's access descriptor.
func (c accessCase) desc() mpi.AccessDesc {
	d := mpi.AccessDesc{Offset: 16, Elems: c.elems, Stride: 1, Proto: c.proto}
	if c.shape != "contig" {
		d.Stride = 3
		d.Packed = c.shape == "packed"
	}
	if c.cache != "anonymous" {
		d.Region = "A"
	}
	return d
}

func (c accessCase) key(hops int) string {
	return fmt.Sprintf("%s/%s/%s/%s/hops%d/%d", c.fabric, c.shape, c.proto, c.cache, hops, c.elems)
}

// accessCases enumerates the direct table: contiguous, strided and
// packed accesses, stamped eager, rendezvous and unstamped, against a
// cold cache, a warm one and as an anonymous buffer, at hop distance 1
// and the 2x2 mesh's maximum, at element counts around the pack and
// protocol crossovers.
func accessCases() []accessCase {
	var out []accessCase
	for _, fabric := range fabrics {
		for _, shape := range []string{"contig", "strided", "packed"} {
			for _, proto := range []lmad.Protocol{lmad.ProtoAuto, lmad.ProtoEager, lmad.ProtoRndv} {
				for _, cache := range []string{"cold", "warm", "anonymous"} {
					for _, target := range []int{1, 3} {
						for _, elems := range []int64{0, 1, 35, 117, 441, 4096} {
							out = append(out, accessCase{fabric, shape, cache, proto, target, elems})
						}
					}
				}
			}
		}
	}
	return out
}

// TestAccessesMatchGolden charges every cell of the direct table
// through the MPI runtime's charge-only verb on a fresh traced 4-rank
// cluster and compares the booked time and traced transport class with
// the recorded table — and with what Price answers for the same access
// against a simulated cache in the same state.
func TestAccessesMatchGolden(t *testing.T) {
	var out bytes.Buffer
	out.WriteString("{\n")
	for i, c := range accessCases() {
		params, err := cluster.ParamsForFabric(c.fabric)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := cluster.New(4, params)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.New()
		cl.SetRecorder(rec)
		p := mpi.NewWorld(cl).Rank(0)
		k, hops := params.CommCost(), params.Geometry().Hops(0, c.target)
		var sim *interconnect.RegCache
		if caches := k.NewRegCaches(1); caches != nil {
			sim = caches[0]
		}
		d := c.desc()
		if c.cache == "warm" {
			// A charged rendezvous transfer is the only thing that
			// registers a region.
			w := d
			w.Stride, w.Packed, w.Proto = 1, false, lmad.ProtoRndv
			mpi.Must(p.Charge(c.target, w))
			k.Price(w, hops, sim)
		}
		t0 := cl.Clock(0)
		mpi.Must(p.Charge(c.target, d))
		ev := rec.Events()
		booked, tr := cl.Clock(0)-t0, ev[len(ev)-1].Transport
		if ps, ptr := k.Price(d, hops, sim); ps != booked || ptr != tr {
			t.Errorf("%s: Price = %v on %v, runtime booked %v on %v", c.key(hops), ps, ptr, booked, tr)
		}
		if i > 0 {
			out.WriteString(",\n")
		}
		fmt.Fprintf(&out, `%q:{"ps":%d,"transport":%q}`, c.key(hops), int64(booked), tr)
	}
	out.WriteString("\n}\n")
	golden.Check(t, "testdata/access_golden.json", out.Bytes())
}
