package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/sweeps from the current sweep output")

// TestSweepGolden pins the printed quick output of every model sweep
// against testdata/sweeps, recorded from the hand-written sweeps the
// registry replaced, and requires a golden file for every sweep this
// package registers (the host-timed serve, chaos and peers sweeps
// register from internal/bench/serve and assert their own invariants).
func TestSweepGolden(t *testing.T) {
	dir := filepath.Join("testdata", "sweeps")
	fromFolder(t, dir)
	for _, s := range Sweeps() {
		if _, err := os.Stat(filepath.Join(dir, s.Name+".quick.txt")); err != nil {
			t.Errorf("registered sweep %s has no golden file: %v", s.Name, err)
		}
	}
}

// maskedColumns names, per sweep, the columns whose values depend on the
// host or on goroutine scheduling; they are dropped before comparing.
var maskedColumns = map[string][]string{
	"scalesweep": {"wall(s)", "ops/s"},
	"killsweep":  {"elapsed"},
}

// fromFolder runs one subtest per <sweep>[.<variant>].quick.txt in dir:
// the sweep's quick output, with its masked columns dropped, must equal
// the file byte for byte. A variant is "fabric-NAME" or "coalesce".
// With -update the files are rewritten instead.
func fromFolder(t *testing.T, dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		stem, ok := strings.CutSuffix(e.Name(), ".quick.txt")
		if !ok {
			t.Errorf("%s: unexpected file in golden folder", e.Name())
			continue
		}
		sweep, variant, _ := strings.Cut(stem, ".")
		path := filepath.Join(dir, e.Name())
		t.Run(stem, func(t *testing.T) {
			out, err := quickOutput(sweep, variant)
			if err != nil {
				t.Fatal(err)
			}
			got := dropColumns(out, maskedColumns[sweep])
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("output differs from %s\n--- got\n%s--- want\n%s", path, got, want)
			}
		})
	}
}

// dropColumns removes the named columns from every table in out: the
// first line of a block holding any of the names as a whitespace-
// separated field is its header, and it and the rows below it (up to
// the next blank line) are re-joined with single spaces without those
// fields.
func dropColumns(out string, names []string) string {
	if len(names) == 0 {
		return out
	}
	var sb strings.Builder
	var drop map[int]bool
	for _, line := range strings.SplitAfter(out, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			drop = nil
		} else if drop == nil {
			found := map[int]bool{}
			for i, f := range fields {
				for _, n := range names {
					if f == n {
						found[i] = true
					}
				}
			}
			if len(found) > 0 {
				drop = found
			}
		}
		if drop == nil {
			sb.WriteString(line)
			continue
		}
		var kept []string
		for i, f := range fields {
			if !drop[i] {
				kept = append(kept, f)
			}
		}
		sb.WriteString(strings.Join(kept, " ") + "\n")
	}
	return sb.String()
}

// quickOutput is what `vbbench -sweep <sweep> -quick` prints on stdout
// for one golden variant.
func quickOutput(sweep, variant string) (string, error) {
	env := Env{Quick: true}
	switch {
	case variant == "coalesce":
		env.Coalesce = true
	case strings.HasPrefix(variant, "fabric-"):
		env.Fabric = strings.TrimPrefix(variant, "fabric-")
	case variant != "":
		return "", fmt.Errorf("unknown golden variant %q", variant)
	}
	s, ok := Lookup(sweep)
	if !ok {
		return "", fmt.Errorf("no sweep %q", sweep)
	}
	rep, err := s.Run(env)
	if err != nil {
		return "", err
	}
	return rep.String(), nil
}

// The extra sweep used to range over a map: its row order changed from
// run to run.
func TestExtraDeterministic(t *testing.T) {
	first, err := quickOutput("extra", "")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 20; i++ {
		if out, _ := quickOutput("extra", ""); out != first {
			t.Fatalf("run %d differs from run 0:\n%s--- run 0\n%s", i, out, first)
		}
	}
}
