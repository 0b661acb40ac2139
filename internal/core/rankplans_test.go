package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/core"
	"vbuscluster/internal/golden"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/progen"
)

// planFabrics are the five registered fabrics the oracle prices on.
var planFabrics = []string{"vbus", "ethernet", "ideal", "vbus3d", "rdma"}

// fabricParams resolves each of planFabrics once.
func fabricParams(t *testing.T) map[string]cluster.Params {
	t.Helper()
	out := map[string]cluster.Params{}
	for _, f := range planFabrics {
		params, err := cluster.ParamsForFabric(f)
		if err != nil {
			t.Fatal(err)
		}
		out[f] = params
	}
	return out
}

// planDigest is the SHA-256 of every rank's transfer lists and covers
// (postpass.RankPlans and RankCovers), in both directions of every
// parallel region, each transfer and span at the offset the rank
// moves it.
func planDigest(p *postpass.Program) string {
	h := sha256.New()
	var buf []byte
	num := func(v int64) { buf = binary.LittleEndian.AppendUint64(buf, uint64(v)) }
	for i, r := range p.Regions {
		if r.Par == nil {
			continue
		}
		for _, dir := range []postpass.Direction{postpass.Scatter, postpass.Collect} {
			for rank := 0; rank < r.Par.Procs; rank++ {
				plans, covers := postpass.RankPlans(r.Par, dir, rank), postpass.RankCovers(r.Par, dir, rank)
				buf = buf[:0]
				num(int64(i))
				num(int64(dir))
				num(int64(rank))
				num(int64(len(plans)))
				for k, pl := range plans {
					buf = append(buf, pl.Sym.Name...)
					num(int64(len(pl.Plan)))
					num(int64(len(covers[k])))
					for _, tr := range pl.Plan {
						num(pl.Shift + tr.Offset)
						num(tr.Elems)
						num(tr.Stride)
						buf = append(buf, byte(tr.Proto))
						if tr.Packed {
							buf = append(buf, 1)
						} else {
							buf = append(buf, 0)
						}
					}
					for _, s := range covers[k] {
						num(pl.Shift + s.Lo)
						num(pl.Shift + s.Hi)
					}
				}
				h.Write(buf)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))[:16]
}

// planCase renders one line of the rank-plan oracle: the digest of
// every rank's plans and covers, and EstimateCommCost on each of the
// five fabrics. Only the coalesce stage reads the machine, so other
// variants are compiled once and priced on every fabric; a coalesced
// translation is compiled per fabric, and its digest covers all five.
func planCase(t *testing.T, machines map[string]cluster.Params, name, src string, opts core.Options) string {
	t.Helper()
	var b strings.Builder
	fmt.Fprintf(&b, "%s P=%d %v", name, opts.NumProcs, opts.Grain)
	switch {
	case opts.Coalesce:
		b.WriteString(" coalesce")
	case opts.PullScatter:
		b.WriteString(" pull")
	case opts.TwoSided:
		b.WriteString(" two-sided")
	}
	var digests, costs []string
	var c *core.Compiled
	for _, fabric := range planFabrics {
		if c == nil || opts.Coalesce {
			o := opts
			o.Fabric = fabric
			var err error
			if c, err = core.Compile(src, o); err != nil {
				t.Fatalf("%s: %v", b.String(), err)
			}
			digests = append(digests, planDigest(c.SPMD))
		}
		params := machines[fabric]
		cost := postpass.EstimateCommCost(c.SPMD, core.MachineParams(&params, opts.NumProcs))
		costs = append(costs, fmt.Sprintf("%s=%d", fabric, cost))
	}
	fmt.Fprintf(&b, " plans=%s %s\n", strings.Join(digests, ","), strings.Join(costs, " "))
	return b.String()
}

// TestRankPlansOracle pins every rank's transfer lists and covers, and
// the static estimate on five fabrics, over testdata/*.f, MM, SWIM and
// CFFT, the three progen.Shapes and 50 generated programs, at P ∈ {1,
// 2, 4, 7, 64} × fine, middle and coarse grain × plain, coalesced,
// pull-scatter and two-sided translations, plus SWIM and MM 1024² on
// 1024 ranks at fine and coarse grain. How the postpass computes a
// rank's plan may change; what it moves, and what the estimator
// charges for it, may not.
func TestRankPlansOracle(t *testing.T) {
	type prog struct{ name, src string }
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	var progs []prog
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, prog{filepath.Base(file), string(src)})
	}
	progs = append(progs,
		prog{"mm24", bench.MMSource(24)},
		prog{"swim32", bench.SwimSource(32, 32)},
		prog{"cfft5", bench.CFFTSource(5)})
	for _, sh := range progen.Shapes {
		progs = append(progs, prog{sh.Name, sh.Src})
	}
	for seed := int64(0); seed < 50; seed++ {
		progs = append(progs, prog{fmt.Sprintf("gen%02d", seed), progen.New(seed).Generate()})
	}
	machines := fabricParams(t)
	variants := []core.Options{{}, {Coalesce: true}, {PullScatter: true}, {TwoSided: true}}
	var b strings.Builder
	for _, p := range progs {
		for _, procs := range []int{1, 2, 4, 7, 64} {
			for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
				for _, v := range variants {
					v.NumProcs, v.Grain = procs, grain
					b.WriteString(planCase(t, machines, p.name, p.src, v))
				}
			}
		}
	}
	for _, p := range []prog{{"swim1024", bench.SwimSource(1024, 1024)}, {"mm1024", bench.MMSource(1024)}} {
		for _, grain := range []lmad.Grain{lmad.Fine, lmad.Coarse} {
			b.WriteString(planCase(t, machines, p.name, p.src, core.Options{NumProcs: 1024, Grain: grain}))
		}
	}
	golden.Check(t, "testdata/rankplans.golden", []byte(b.String()))
}
