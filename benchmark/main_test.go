package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// TestManifest pins BENCHMARK.json to the tables in metrics.go and
// workloads.go, and both to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var onDisk, generated any
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	gen, err := json.Marshal(manifest())
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(gen, &generated); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, generated) {
		t.Error("BENCHMARK.json differs from `go run ./benchmark -manifest`")
	}

	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		checkName(w.name)
		if len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.name, len(w.why))
		}
	}
	hasSetup := false
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		checkName(d.Name)
		if !unit.MatchString(d.Unit) {
			t.Errorf("%s: unit %q does not match %v", d.Name, d.Unit, unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("%s: better is %q", d.Name, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, n := range exactLayer {
		if !seen[n] {
			t.Errorf("exact count %q is not a per-layer metric", n)
		}
	}
}

// TestWorkloads runs every workload for a moment, untraced and traced,
// and asserts what does not depend on timing: every output check
// passes and every declared metric is reported as a finite number.
func TestWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 1024-rank simulation")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := runConfig{workload: w.name, seed: 3, seconds: 0.02, setups: [2]int{1, 1}, outDir: t.TempDir()}
			inst, setupS, err := setUp(w, cfg, g)
			if err != nil {
				t.Fatal(err)
			}
			defer inst.close()
			untraced := runUntraced(w, inst, cfg, setupS, io.Discard)
			traced, err := runTraced(w, inst, cfg, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range []struct {
				res  result
				defs []metricDef
			}{{untraced, endToEnd}, {traced, perLayer}} {
				if c.res.Failed != 0 || c.res.Attempted < 1 {
					t.Errorf("%d of %d ops failed: %v", c.res.Failed, c.res.Attempted, c.res.firstErr)
				}
				if len(c.res.Metrics) != len(c.defs) {
					t.Errorf("%d metrics reported, %d declared", len(c.res.Metrics), len(c.defs))
				}
				for _, d := range c.defs {
					m, ok := c.res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("%s: reported %+v (present %t)", d.Name, m, ok)
					}
				}
			}
			for _, d := range endToEnd {
				if untraced.Metrics[d.Name].Value <= 0 {
					t.Errorf("%s = %v: end-to-end metrics are never 0", d.Name, untraced.Metrics[d.Name].Value)
				}
			}
			for _, n := range exactLayer {
				if traced.Metrics[n].Value <= 0 {
					t.Errorf("%s = %v, want a positive count", n, traced.Metrics[n].Value)
				}
			}
			if inst.server != nil {
				want := 0.0
				if w.name == "serve_hit" {
					want = 1
				}
				if got := traced.Metrics["jobs.cache_hit_ratio"].Value; got != want {
					t.Errorf("jobs.cache_hit_ratio = %v, want %v", got, want)
				}
			}
		})
	}
}

// TestSeededInputs pins the generator's contract: the same seed gives
// the same inputs, another seed gives others, and serve_miss never
// repeats a plan key.
func TestSeededInputs(t *testing.T) {
	if !reflect.DeepEqual(shuffled(7, 2, 24), shuffled(7, 2, 24)) {
		t.Error("shuffled is not a function of its arguments")
	}
	if reflect.DeepEqual(shuffled(7, 2, 24), shuffled(8, 2, 24)) {
		t.Error("shuffled ignores the seed")
	}
	labels := map[string]bool{}
	for _, p := range missBodies() {
		labels[p.label] = true
	}
	keys := map[string]bool{}
	for k := 0; k < 2000; k++ {
		label, comment := missJob(7, "job", k)
		if !labels[label] {
			t.Fatalf("job %d draws %q, not one of missBodies", k, label)
		}
		if keys[comment] {
			t.Fatalf("job %d repeats the key line %q", k, comment)
		}
		keys[comment] = true
	}
}
