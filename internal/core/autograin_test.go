package core_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/progen"
)

// An AutoGrain compile must be the plain compile at the grain it
// picked: the same Report(), and a grain-select note whose price of
// each grain is EstimateCommCost of a separate compile at that grain.
// How AutoGrain shares work between its candidates may change; what it
// picks, prints and prices may not.
func TestAutoGrainMatchesExplicitGrain(t *testing.T) {
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
	for seed := int64(0); seed < 50; seed++ {
		progs = append(progs, prog{fmt.Sprintf("gen%02d", seed), progen.New(seed).Generate()})
	}
	picked := map[lmad.Grain]int{}
	for _, p := range progs {
		for _, procs := range []int{1, 4, 7, 64} {
			tr := &core.PassTrace{}
			auto, err := core.Compile(p.src, core.Options{NumProcs: procs, AutoGrain: true, Trace: tr})
			if err != nil {
				t.Fatalf("%s P=%d: %v", p.name, procs, err)
			}
			var note string
			for _, rec := range tr.Records {
				if rec.Name == "grain-select" {
					note = rec.Note
				}
			}
			machine := core.MachineParams(nil, procs)
			var prices []string
			for _, g := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
				c, err := core.Compile(p.src, core.Options{NumProcs: procs, Grain: g})
				if err != nil {
					t.Fatalf("%s P=%d %v: %v", p.name, procs, g, err)
				}
				prices = append(prices, fmt.Sprintf("%s=%v", g, postpass.EstimateCommCost(c.SPMD, machine)))
				if g == auto.Grain() && c.Report() != auto.Report() {
					t.Errorf("%s P=%d: AutoGrain picked %v and reports\n%s\nthe plain %v compile reports\n%s",
						p.name, procs, g, auto.Report(), g, c.Report())
				}
			}
			if want := strings.Join(prices, ", ") + " -> picked " + auto.Grain().String(); note != want {
				t.Errorf("%s P=%d: grain-select note %q, separate compiles price %q", p.name, procs, note, want)
			}
			picked[auto.Grain()]++
		}
	}
	if len(picked) < 2 {
		t.Fatalf("AutoGrain picked only %v over the corpus; it no longer exercises a choice", picked)
	}
}
