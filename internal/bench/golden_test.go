package bench

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"vbuscluster/internal/lmad"
)

var update = flag.Bool("update", false, "rewrite testdata/sweeps from the current sweep output")

// TestSweepGolden pins the printed quick output of every model sweep
// against testdata/sweeps, recorded from `vbbench -<sweep> -quick`
// before the sweeps were restructured.
func TestSweepGolden(t *testing.T) { fromFolder(t, filepath.Join("testdata", "sweeps")) }

// maskedColumns names, per sweep, the columns whose values depend on the
// host or on goroutine scheduling; they are dropped before comparing.
var maskedColumns = map[string][]string{
	"scalesweep": {"wall(s)", "peakRSS(MB)", "ops/s"},
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

// dropColumns removes the named columns from every table in out: a
// line holding all the names as whitespace-separated fields is a
// header, and it and the rows below it (up to the next blank line) are
// re-joined with single spaces without those fields.
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
			if len(found) == len(names) {
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

// quickOutput reproduces what `vbbench -<sweep> -quick` prints on
// stdout for one golden variant.
func quickOutput(sweep, variant string) (string, error) {
	fabric := ""
	var opts []RunOption
	switch {
	case variant == "coalesce":
		opts = append(opts, WithCoalesce())
	case strings.HasPrefix(variant, "fabric-"):
		fabric = strings.TrimPrefix(variant, "fabric-")
	case variant != "":
		return "", fmt.Errorf("unknown golden variant %q", variant)
	}
	var sb strings.Builder
	switch sweep {
	case "table1":
		rows, err := Table1([]int{64, 128, 256}, []int{1, 2, 4}, lmad.Fine, fabric, opts...)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatTable1(rows))
		fmt.Fprintln(&sb, "raw cells:")
		for _, r := range rows {
			fmt.Fprintf(&sb, "  MM %4d*%-4d procs=%d seq=%v par=%v speedup=%.3f\n",
				r.Size, r.Size, r.Procs, r.Seq, r.Par, r.Speedup)
		}
		fmt.Fprintln(&sb)
	case "table2":
		rows, err := Table2(Table2Benchmarks(128, 128, 9), 4, fabric, opts...)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatTable2(rows))
		fmt.Fprintln(&sb, "raw cells:")
		for _, r := range rows {
			fmt.Fprintf(&sb, "  %-22s %-6v comm=%-12v elapsed=%-12v msgs=%-6d bytes=%d\n",
				r.Benchmark, r.Grain, r.CommTime, r.Elapsed, r.Messages, r.Bytes)
		}
		fmt.Fprintln(&sb)
	case "micro":
		res, err := RunMicro()
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, res)
	case "crossover":
		points, err := Crossover(1<<12, []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}, 4, fabric)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatCrossover(points))
	case "profile":
		out, err := CommProfiles(Table2Benchmarks(128, 128, 9), 4, lmad.Coarse, fabric)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, "Communication matrices of the Table 2 programs (accounted bytes, origin row -> peer column):")
		fmt.Fprintln(&sb, out)
	case "faultsweep":
		rows, err := FaultSweep(32, 4, 1, []float64{0, 1e-4, 1e-3, 1e-2, 5e-2}, fabric)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatFaultSweep(rows))
	case "killsweep":
		rows, err := KillSweep(24, 4, 1, 1, []int64{0, 5, 20, 45, 60}, fabric)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatKillSweep(rows))
	case "coalsweep":
		points, err := CoalSweep([]int{8, 32, 64, 256}, []int{2, 4, 16}, fabric)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatCoalSweep(points, fabric))
	case "rdmasweep":
		res, err := RdmaSweep(true)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatRdmaSweep(res))
	case "scalesweep":
		rows, err := ScaleSweep(nil, []int{4, 16, 64}, []string{"vbus", "vbus3d", "ethernet", "ideal"}, opts...)
		if err != nil {
			return "", err
		}
		fmt.Fprintln(&sb, FormatScaleSweep(rows))
	default:
		return "", fmt.Errorf("no sweep %q", sweep)
	}
	return sb.String(), nil
}
