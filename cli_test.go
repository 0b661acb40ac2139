// Integration tests: build the three binaries and drive them end to
// end on the testdata programs.
package vbuscluster

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// buildBinaries compiles the cmd/ tree once per test binary run.
func buildBinaries(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	for _, name := range []string{"vbcc", "vbrun", "vbbench", "vbtrace"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(dir, name), "./cmd/"+name)
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, out)
		}
	}
	return dir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// stdout is run without stderr: what the program printed, not the
// tool's own "wrote N trace events" notes.
func stdout(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).Output()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

// programText drops vbrun's "---" report lines, leaving what the
// program itself printed.
func programText(out string) string {
	var kept []string
	for _, line := range strings.SplitAfter(out, "\n") {
		if !strings.HasPrefix(line, "---") {
			kept = append(kept, line)
		}
	}
	return strings.Join(kept, "")
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration skipped in -short mode")
	}
	bins := buildBinaries(t)

	t.Run("vbcc-explain", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-explain", "-grain", "coarse", "testdata/jacobi.f")
		if !strings.Contains(out, "parallel=true") {
			t.Fatalf("no parallel loops reported:\n%s", out)
		}
		if !strings.Contains(out, "SPMD program") {
			t.Fatalf("no translation report:\n%s", out)
		}
	})

	t.Run("vbcc-spmd-listing", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-spmd", "testdata/dotprod.f")
		for _, want := range []string{"CALL MPI_INIT", "MPI_ALLREDUCE", "CALL MPI_BARRIER"} {
			if !strings.Contains(out, want) {
				t.Fatalf("SPMD listing missing %q:\n%s", want, out)
			}
		}
	})

	t.Run("vbcc-emit-reparses", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-emit", "testdata/tridiag.f")
		if !strings.Contains(out, "PROGRAM TRI") {
			t.Fatalf("emit output:\n%s", out)
		}
	})

	t.Run("vbrun-seq-vs-par", func(t *testing.T) {
		vbrun := filepath.Join(bins, "vbrun")
		seq := run(t, vbrun, "-seq", "testdata/dotprod.f")
		par := run(t, vbrun, "-procs", "4", "-grain", "coarse", "testdata/dotprod.f")
		seqLine := strings.SplitN(seq, "\n", 2)[0]
		parLine := strings.SplitN(par, "\n", 2)[0]
		if !strings.HasPrefix(seqLine, "DOT") || !strings.HasPrefix(parLine, "DOT") {
			t.Fatalf("program output missing: %q vs %q", seqLine, parLine)
		}
		// The dot product involves a reduction: values agree to FP
		// reassociation; compare a common prefix.
		n := 10
		if len(seqLine) < n || len(parLine) < n {
			n = min(len(seqLine), len(parLine))
		}
		if seqLine[:n] != parLine[:n] {
			t.Fatalf("outputs diverge: %q vs %q", seqLine, parLine)
		}
	})

	t.Run("vbrun-profile", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbrun"), "-profile", "testdata/jacobi.f")
		if !strings.Contains(out, "per-region profile") || !strings.Contains(out, "DO I") {
			t.Fatalf("profile missing:\n%s", out)
		}
	})

	t.Run("vbrun-auto-grain", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbrun"), "-grain", "auto", "testdata/fig4.f")
		if !strings.Contains(out, "auto-grain selected:") {
			t.Fatalf("auto grain not reported:\n%s", out)
		}
	})

	t.Run("vbbench-quick", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbbench"), "-sweep", "table2", "-quick")
		if !strings.Contains(out, "Table 2") || !strings.Contains(out, "CFFT2INIT") {
			t.Fatalf("bench output:\n%s", out)
		}
	})

	t.Run("vbcc-passes", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-passes", "testdata/jacobi.f")
		if !strings.Contains(out, "pass pipeline:") {
			t.Fatalf("no pipeline table:\n%s", out)
		}
		for _, pass := range []string{
			"parse", "inline", "const-prop", "induction", "parallel-detect",
			"partition", "spmdize", "scatter-collect", "grain-opt", "avpg", "env-gen",
		} {
			if !strings.Contains(out, pass) {
				t.Fatalf("pipeline missing pass %q:\n%s", pass, out)
			}
		}
	})

	t.Run("vbcc-passes-auto", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-passes", "-grain", "auto", "testdata/jacobi.f")
		count := map[string]int{}
		for _, line := range strings.Split(out, "\n") {
			if f := strings.Fields(line); len(f) > 0 {
				count[f[0]]++
			}
		}
		if count["partition"] != 1 || count["grain-opt"] != 3 || count["grain-select"] != 1 {
			t.Fatalf("AutoGrain pipeline ran partition %d, grain-opt %d, grain-select %d times; want 1, 3, 1:\n%s",
				count["partition"], count["grain-opt"], count["grain-select"], out)
		}
	})

	t.Run("vbcc-dump-after", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbcc"), "-dump-after", "inline", "testdata/jacobi.f")
		if !strings.Contains(out, "IR after inline") {
			t.Fatalf("no IR dump:\n%s", out)
		}
	})

	t.Run("vbrun-fabric", func(t *testing.T) {
		vbrun := filepath.Join(bins, "vbrun")
		vbus := run(t, vbrun, "-fabric", "vbus", "-mode", "timing", "testdata/jacobi.f")
		eth := run(t, vbrun, "-fabric", "ethernet", "-mode", "timing", "testdata/jacobi.f")
		ideal := run(t, vbrun, "-fabric", "ideal", "-mode", "timing", "testdata/jacobi.f")
		for name, out := range map[string]string{"vbus": vbus, "ethernet": eth, "ideal": ideal} {
			if !strings.Contains(out, "virtual time:") {
				t.Fatalf("%s run produced no report:\n%s", name, out)
			}
		}
		if vbus == eth {
			t.Fatal("vbus and ethernet runs reported identical timing")
		}
		if !strings.Contains(ideal, "comm 0") {
			t.Fatalf("ideal backend charged communication time:\n%s", ideal)
		}
	})

	t.Run("vbrun-fabric-unknown", func(t *testing.T) {
		cmd := exec.Command(filepath.Join(bins, "vbrun"), "-fabric", "no-such-fabric", "testdata/jacobi.f")
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("unknown fabric accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "unknown backend") {
			t.Fatalf("unhelpful error:\n%s", out)
		}
	})

	// A program whose last partition stores past the end of A fails on a
	// slave: vbrun must report that error, not the peer-crashed failure
	// the slave's departure causes on the master.
	t.Run("vbrun-slave-error", func(t *testing.T) {
		prog := filepath.Join(t.TempDir(), "oob.f")
		src := `
      PROGRAM OOB
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 1, N
        A(I+1) = REAL(I)
      ENDDO
      PRINT *, A(2)
      END
`
		if err := os.WriteFile(prog, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(filepath.Join(bins, "vbrun"), "-mode", "full", "-procs", "4", prog).CombinedOutput()
		if err == nil {
			t.Fatalf("out-of-bounds program ran clean:\n%s", out)
		}
		if !strings.Contains(string(out), "subscript out of bounds") || strings.Contains(string(out), "peer-crashed") {
			t.Fatalf("vbrun did not report the slave's own error:\n%s", out)
		}
	})

	t.Run("vbbench-fabric", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbbench"), "-sweep", "table1", "-quick", "-fabric", "ideal")
		if !strings.Contains(out, "Table 1") {
			t.Fatalf("bench output:\n%s", out)
		}
	})

	t.Run("vbrun-trace", func(t *testing.T) {
		traceFile := filepath.Join(t.TempDir(), "run.json")
		out := run(t, filepath.Join(bins, "vbrun"), "-trace", traceFile, "-profile",
			"-mode", "timing", "testdata/jacobi.f")
		for _, want := range []string{"per-rank profile", "communication matrix", "wrote"} {
			if !strings.Contains(out, want) {
				t.Fatalf("trace run output missing %q:\n%s", want, out)
			}
		}
		// vbtrace is the validator: it parses the JSON and fails on any
		// malformed event, so a clean exit proves the export is loadable.
		summary := run(t, filepath.Join(bins, "vbtrace"), traceFile)
		for _, want := range []string{"compiler", "rank 0", "rank 3", "events"} {
			if !strings.Contains(summary, want) {
				t.Fatalf("trace summary missing %q:\n%s", want, summary)
			}
		}
	})

	t.Run("vbcc-trace", func(t *testing.T) {
		traceFile := filepath.Join(t.TempDir(), "passes.json")
		run(t, filepath.Join(bins, "vbcc"), "-trace", traceFile, "testdata/jacobi.f")
		summary := run(t, filepath.Join(bins, "vbtrace"), traceFile)
		if !strings.Contains(summary, "compiler") {
			t.Fatalf("no compiler track in vbcc trace:\n%s", summary)
		}
	})

	// A bad -dims geometry is rejected before the trace is read, with
	// the bad dimension named.
	t.Run("vbtrace-bad-dims", func(t *testing.T) {
		traceFile := filepath.Join(t.TempDir(), "run.json")
		if err := os.WriteFile(traceFile, []byte(`{"traceEvents":[{"name":"send","ph":"X","ts":0,"dur":1,"tid":0}]}`), 0o644); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(filepath.Join(bins, "vbtrace"), "-dims", "2x0", traceFile).CombinedOutput()
		if err == nil {
			t.Fatalf("vbtrace -dims 2x0 accepted:\n%s", out)
		}
		if !strings.Contains(string(out), "2x0: dimension 1 has size 0") {
			t.Fatalf("vbtrace -dims 2x0 does not name the bad dimension:\n%s", out)
		}
	})

	t.Run("vbbench-profile", func(t *testing.T) {
		out := run(t, filepath.Join(bins, "vbbench"), "-sweep", "profile", "-quick")
		if !strings.Contains(out, "Communication matrices") ||
			!strings.Contains(out, "communication matrix") {
			t.Fatalf("bench profile output:\n%s", out)
		}
		for _, want := range []string{"MM", "Swim", "CFFT2INIT"} {
			if !strings.Contains(out, want) {
				t.Fatalf("profile missing benchmark %q:\n%s", want, out)
			}
		}
	})

	// Tracing must not perturb the run: byte-identical benchmark cells
	// with and without a recorder attached are asserted at the unit
	// level (core.TestRecorderDoesNotChangeTiming); here we pin that two
	// plain runs of the same table are bit-identical, the determinism the
	// trace exports inherit.
	t.Run("vbbench-deterministic", func(t *testing.T) {
		a := run(t, filepath.Join(bins, "vbbench"), "-sweep", "table2", "-quick")
		b := run(t, filepath.Join(bins, "vbbench"), "-sweep", "table2", "-quick")
		if a != b {
			t.Fatal("table 2 output differs across runs")
		}
	})

	// Without -json no sweep writes a file, so a reduced-size run cannot
	// clobber the checked-in paper-size BENCH_*.json; with it, only the
	// sweep's own document appears.
	t.Run("vbbench-json-opt-in", func(t *testing.T) {
		dir := t.TempDir()
		for _, c := range []struct {
			args []string
			want []string
		}{
			{[]string{"-sweep", "all", "-quick"}, nil},
			{[]string{"-sweep", "scalesweep", "-quick", "-json"}, []string{"BENCH_scale.json"}},
		} {
			cmd := exec.Command(filepath.Join(bins, "vbbench"), c.args...)
			cmd.Dir = dir
			if out, err := cmd.CombinedOutput(); err != nil {
				t.Fatalf("vbbench %v: %v\n%s", c.args, err, out)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var got []string
			for _, e := range entries {
				got = append(got, e.Name())
			}
			if !slices.Equal(got, c.want) {
				t.Fatalf("vbbench %v left %v in its directory, want %v", c.args, got, c.want)
			}
		}
	})

	t.Run("vbbench-unknown-sweep", func(t *testing.T) {
		out, err := exec.Command(filepath.Join(bins, "vbbench"), "-sweep", "table3").CombinedOutput()
		if err == nil {
			t.Fatalf("unknown sweep accepted:\n%s", out)
		}
		for _, want := range []string{`no sweep "table3"`, "table1", "killsweep", "peers"} {
			if !strings.Contains(string(out), want) {
				t.Fatalf("sweep listing missing %q:\n%s", want, out)
			}
		}
	})

	// Paired vbrun runs: the second must print what the first printed —
	// the whole stdout when the flags are the same (seeded faults and
	// virtual time are deterministic), the program text above the "---"
	// report otherwise (a recovered crash, a coalesced transport, another
	// fabric change timing, never results) — and its exported timeline
	// must validate under vbtrace, which pins event classes per transport
	// and, when told, the rank count and mesh geometry.
	for _, c := range []struct {
		name, prog    string
		first, second []string
		traceHas      string
		vbtrace       []string
	}{
		{name: "fault-replay", prog: "testdata/matmul.f",
			first: []string{"-faults", "seed=1,flitdrop=1e-3"}, second: []string{"-faults", "seed=1,flitdrop=1e-3"}},
		{name: "crash-recovery", prog: "testdata/matmul.f",
			first: []string{"-resilient"}, second: []string{"-resilient", "-faults", "seed=0,crashafter=1/5"}},
		{name: "coalesce", prog: "testdata/stride.f", second: []string{"-coalesce"}, traceHas: `"cat":"pack"`},
		{name: "rdma", prog: "testdata/jacobi.f", second: []string{"-fabric", "rdma"}, traceHas: `"cat":"eager"`},
		{name: "vbus3d-geometry", prog: "testdata/jacobi.f",
			first: []string{"-fabric", "vbus3d", "-mode", "timing"}, second: []string{"-fabric", "vbus3d", "-mode", "timing"},
			vbtrace: []string{"-ranks", "4", "-dims", "2x2x1"}},
	} {
		t.Run("vbrun-pair-"+c.name, func(t *testing.T) {
			vbrun := filepath.Join(bins, "vbrun")
			traceFile := filepath.Join(t.TempDir(), "run.json")
			a := stdout(t, vbrun, append(slices.Clone(c.first), c.prog)...)
			b := stdout(t, vbrun, append(slices.Clone(c.second), "-trace", traceFile, c.prog)...)
			if !slices.Equal(c.first, c.second) {
				a, b = programText(a), programText(b)
			}
			if a != b {
				t.Fatalf("vbrun %v and vbrun %v print differently:\n%s--- vs\n%s", c.first, c.second, a, b)
			}
			trace, err := os.ReadFile(traceFile)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Contains(trace, []byte(c.traceHas)) {
				t.Fatalf("trace of vbrun %v has no %s event", c.second, c.traceHas)
			}
			run(t, filepath.Join(bins, "vbtrace"), append(slices.Clone(c.vbtrace), traceFile)...)
		})
	}
}
