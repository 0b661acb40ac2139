package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"

	"vbuscluster/internal/core"
)

//go:embed golden.json
var goldenJSON []byte

// goldenPath is where -update-golden writes, relative to the repo root.
const goldenPath = "benchmark/golden.json"

// golden holds the simulated statistics every run is checked against.
// Simulated time is a correctness fixed point of this benchmark, not a
// speed metric, so values are kept as exact strings: integers in
// decimal, floats in their shortest round-trip form, hashes in hex.
type golden struct {
	Commit string            `json:"generated_from_commit"`
	Values map[string]string `json:"values"`

	update bool
}

func loadGolden() (*golden, error) {
	g := &golden{}
	if err := json.Unmarshal(goldenJSON, g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	return g, nil
}

// expect compares one derived value with its golden; under
// -update-golden it records the value instead.
func (g *golden) expect(key, got string) error {
	if g.update {
		g.Values[key] = got
		return nil
	}
	want, ok := g.Values[key]
	if !ok {
		return fmt.Errorf("golden %s: no recorded value (run -update-golden)", key)
	}
	if got != want {
		return fmt.Errorf("golden %s: got %s, want %s", key, got, want)
	}
	return nil
}

func (g *golden) expectInt(key string, got int64) error {
	return g.expect(key, strconv.FormatInt(got, 10))
}

// runStats are the three simulated statistics checked on every run.
type runStats struct {
	virtualPs, commOps, commBytes int64
}

func (g *golden) expectRun(label string, st runStats) error {
	return errors.Join(
		g.expectInt("run/"+label+"/virtual_ps", st.virtualPs),
		g.expectInt("run/"+label+"/comm_ops", st.commOps),
		g.expectInt("run/"+label+"/comm_bytes", st.commBytes))
}

// verifyFixedPoints re-derives the paper's results through core only —
// Table 1 (MM speedups, coarse grain) and Table 2 (transfer time of the
// trio at the three grains, 4 ranks) — and compares them bit-exact.
func verifyFixedPoints(g *golden) error {
	for _, n := range []int{256, 512, 1024} {
		c, err := compile(newPlan(mm, n, 1, "coarse"))
		if err != nil {
			return err
		}
		seq, err := c.RunSequential(core.Timing)
		if err != nil {
			return fmt.Errorf("table 1 MM %d sequential: %w", n, err)
		}
		for _, procs := range []int{1, 2, 4} {
			p := newPlan(mm, n, procs, "coarse")
			c, err := compile(p)
			if err != nil {
				return err
			}
			par, err := c.RunParallelWith(core.Timing, core.RunParams{})
			if err != nil {
				return fmt.Errorf("table 1 %s: %w", p.label, err)
			}
			speedup := float64(seq.Elapsed) / float64(par.Elapsed)
			if err := g.expect("table1/"+p.label+"/speedup", strconv.FormatFloat(speedup, 'g', -1, 64)); err != nil {
				return err
			}
		}
	}
	for _, b := range []struct {
		k    kernel
		size int
	}{{mm, 1024}, {swim, 512}, {cfft, 11}} {
		for _, grain := range []string{"fine", "middle", "coarse"} {
			p := newPlan(b.k, b.size, 4, grain)
			c, err := compile(p)
			if err != nil {
				return err
			}
			res, err := c.RunParallelWith(core.Timing, core.RunParams{})
			if err != nil {
				return fmt.Errorf("table 2 %s: %w", p.label, err)
			}
			if err := g.expectInt("table2/"+p.label+"/xfer_ps", int64(res.Report.TotalXferTime())); err != nil {
				return err
			}
		}
	}
	return nil
}

func compile(p plan) (*core.Compiled, error) {
	c, err := core.Compile(p.src, p.opts)
	if err != nil {
		return nil, fmt.Errorf("compile %s: %w", p.label, err)
	}
	return c, nil
}

// updateGolden regenerates golden.json by running every workload's
// set-up, which derives each value it later checks.
func updateGolden(seed uint64) error {
	g := &golden{Values: map[string]string{}, update: true, Commit: "unknown"}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		g.Commit = strings.TrimSpace(string(out))
	}
	if err := verifyFixedPoints(g); err != nil {
		return err
	}
	for _, w := range workloads {
		inst, err := w.setup(seed, g)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		inst.close()
	}
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(goldenPath, append(data, '\n'), 0o644)
}
