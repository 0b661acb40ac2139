package bench

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// TestScaleSmoke is the CI scale gate (under make race): a 64-rank MM
// weak-scaling point on the 3D-torus fabric must complete — under the
// race detector in CI — and the process must stay far below the
// 1024-rank acceptance budget: < 512 MB at 64 ranks.
func TestScaleSmoke(t *testing.T) {
	rows, err := ScaleSweep([]string{"MM"}, []int{64}, []string{"vbus3d"}, Env{})
	if err != nil {
		t.Fatalf("ScaleSweep: %v", err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rows))
	}
	r := rows[0]
	if r.Benchmark != "MM" || r.Fabric != "vbus3d" || r.Ranks != 64 || r.Problem != 64 {
		t.Fatalf("row identity wrong: %+v", r)
	}
	if r.VirtualSec <= 0 {
		t.Errorf("virtual time not positive: %v", r.VirtualSec)
	}
	if r.CommOps <= 0 {
		t.Errorf("no comm ops charged: %d", r.CommOps)
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	const budget = 512 << 20
	if ms.Sys > budget {
		t.Errorf("memory high-water %d bytes exceeds %d budget", ms.Sys, budget)
	}
}

// The sweep must price the same program differently on different
// fabrics, and identically on repeated runs of the same fabric
// (virtual time is deterministic even though wall time is not).
func TestScaleSweepFabricsDiffer(t *testing.T) {
	rows, err := ScaleSweep([]string{"MM"}, []int{16}, []string{"vbus", "vbus3d", "ethernet", "ideal"}, Env{})
	if err != nil {
		t.Fatalf("ScaleSweep: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	virt := map[string]float64{}
	for _, r := range rows {
		virt[r.Fabric] = r.VirtualSec
	}
	if virt["ideal"] >= virt["ethernet"] {
		t.Errorf("ideal (%v) should beat ethernet (%v)", virt["ideal"], virt["ethernet"])
	}
	if virt["vbus"] >= virt["ethernet"] {
		t.Errorf("vbus (%v) should beat ethernet (%v)", virt["vbus"], virt["ethernet"])
	}
	again, err := ScaleSweep([]string{"MM"}, []int{16}, []string{"vbus3d"}, Env{})
	if err != nil {
		t.Fatalf("ScaleSweep rerun: %v", err)
	}
	if again[0].VirtualSec != virt["vbus3d"] {
		t.Errorf("vbus3d virtual time not deterministic: %v vs %v", again[0].VirtualSec, virt["vbus3d"])
	}
}

func TestScaleSweepUnknownBenchmark(t *testing.T) {
	if _, err := ScaleSweep([]string{"LINPACK"}, []int{4}, []string{""}, Env{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
}

// A section lands under its key in a schema-tagged envelope, and a
// second section written to the same file keeps the first.
func TestWriteJSONEnvelope(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_scale.json")
	rows := []ScaleRow{{Benchmark: "MM", Fabric: "vbus3d", Ranks: 4, Problem: 4}}
	for _, s := range []Section{
		{File: path, Schema: "vbbench-scalesweep/v1", Key: "rows", Value: rows},
		{File: path, Schema: "ignored", Key: "extra", Value: 7},
	} {
		if err := s.Write(); err != nil {
			t.Fatalf("Section.Write: %v", err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Schema string     `json:"schema"`
		Rows   []ScaleRow `json:"rows"`
		Extra  int        `json:"extra"`
	}
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatalf("round-trip: %v", err)
	}
	if env.Schema != "vbbench-scalesweep/v1" || len(env.Rows) != 1 || env.Rows[0].Fabric != "vbus3d" || env.Extra != 7 {
		t.Fatalf("envelope mangled: %+v", env)
	}
}

// A value that cannot be marshalled must not cost the checked-in file
// its contents.
func TestSectionWriteKeepsFileOnEncodeError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_serve.json")
	before := []byte("{\n  \"schema\": \"vbbench-servesweep/v1\",\n  \"rows\": [1, 2]\n}\n")
	if err := os.WriteFile(path, before, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := (Section{File: path, Key: "chaos", Value: math.Inf(1)}).Write(); err == nil {
		t.Fatal("unmarshallable value accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("failed write changed the file:\n%s", after)
	}
}

// Writing one section leaves every other section's bytes as they were:
// a section written from a struct keeps its field order, which is not
// the alphabetical order a decoded map would re-encode it in.
func TestSectionWriteKeepsSiblingBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_order.json")
	type row struct {
		Zeta  int               `json:"zeta"`
		Alpha string            `json:"alpha"`
		Inner map[string]string `json:"inner"`
		Mid   []float64         `json:"mid"`
	}
	section := func() json.RawMessage {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		return doc["a"]
	}
	a := Section{File: path, Schema: "order/v1", Key: "a",
		Value: []row{{Zeta: 1, Alpha: "x", Inner: map[string]string{"k": "v"}, Mid: []float64{2.5}}}}
	if err := a.Write(); err != nil {
		t.Fatal(err)
	}
	before := section()
	if err := (Section{File: path, Key: "b", Value: map[string]int{"n": 1}}).Write(); err != nil {
		t.Fatal(err)
	}
	if after := section(); !bytes.Equal(before, after) {
		t.Fatalf("writing section b changed section a:\n%s\nbecame\n%s", before, after)
	}
}
