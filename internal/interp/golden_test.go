package interp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/golden"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/postpass"
	"vbuscluster/internal/progen"
)

// goldenPath was recorded from the tree-walking evaluator before it
// was deleted, so it is the oracle the lowered evaluator is held to:
// regenerate it (-update) only when the cost model or the program
// generator changes on purpose, never to make a failing evaluator
// change pass.
const goldenPath = "testdata/lower_golden.json"

// goldenRun is what one execution must reproduce bit for bit.
type goldenRun struct {
	Output    string `json:"output,omitempty"`
	ElapsedPs int64  `json:"elapsed_ps"`
	CommOps   int64  `json:"comm_ops,omitempty"`
	CommBytes int64  `json:"comm_bytes,omitempty"`
	// MemSHA is the SHA-256 over the master's final memory: per symbol
	// in name order, the name, the cell count and every cell's IEEE bits.
	MemSHA string `json:"mem_sha256"`
	// Err replaces everything else when the run fails.
	Err string `json:"err,omitempty"`
}

// memSHA hashes the master's final memory. A Timing run leaves out the
// arrays it never touched; the golden file was recorded when every
// array was allocated up front, so an absent constant-layout array of
// prog's main unit is hashed as the zeros it would have held.
func memSHA(prog *f77.Program, mem map[string][]float64) string {
	untouched := map[string]int64{}
	for _, sym := range prog.Main().Syms.Order {
		if _, ok := mem[sym.Name]; ok || !sym.IsArray() || sym.IsConst || sym.IsArg || sym.Common != "" {
			continue
		}
		if lay, err := analysis.LayoutOf(sym); err == nil && lay.Size > 0 {
			untouched[sym.Name] = lay.Size
		}
	}
	names := make([]string, 0, len(mem)+len(untouched))
	for n := range mem {
		names = append(names, n)
	}
	for n := range untouched {
		names = append(names, n)
	}
	sort.Strings(names)
	h := sha256.New()
	var word [8]byte
	for _, n := range names {
		h.Write([]byte(n))
		if size, ok := untouched[n]; ok {
			binary.LittleEndian.PutUint64(word[:], uint64(size))
			h.Write(word[:])
			word = [8]byte{}
			for i := int64(0); i < size; i++ {
				h.Write(word[:])
			}
			continue
		}
		binary.LittleEndian.PutUint64(word[:], uint64(len(mem[n])))
		h.Write(word[:])
		for _, v := range mem[n] {
			binary.LittleEndian.PutUint64(word[:], math.Float64bits(v))
			h.Write(word[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func record(prog *f77.Program, res *Result, err error) goldenRun {
	if err != nil {
		return goldenRun{Err: err.Error()}
	}
	return goldenRun{
		Output:    res.Output,
		ElapsedPs: int64(res.Elapsed),
		CommOps:   res.Report.TotalCommOps(),
		CommBytes: res.Report.TotalCommBytes(),
		MemSHA:    memSHA(prog, res.Mem),
	}
}

// goldenPrograms is the corpus: fuzz seeds 0–199 and every program in
// the repository's testdata/.
func goldenPrograms(t *testing.T) map[string]string {
	t.Helper()
	progs := map[string]string{}
	for seed := int64(0); seed < 200; seed++ {
		progs[fmt.Sprintf("fuzz-%03d", seed)] = progen.New(seed).Generate()
	}
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		progs[filepath.Base(f)] = string(src)
	}
	return progs
}

// goldenRuns executes one program in every recorded configuration:
// sequential Full and Timing, and parallel Full and Timing at 2 and 4
// ranks for each grain.
func goldenRuns(src string) (map[string]goldenRun, error) {
	prog, err := f77.Parse(src)
	if err != nil {
		return nil, err
	}
	if err := analysis.FrontEnd(prog); err != nil {
		return nil, err
	}
	runs := map[string]goldenRun{}
	for _, mode := range []Mode{Full, Timing} {
		cl, err := cluster.New(1, cluster.DefaultParams())
		if err != nil {
			return nil, err
		}
		res, err := RunSequential(prog, cl, mode)
		runs["seq/"+mode.String()] = record(prog, res, err)
		for _, procs := range []int{2, 4} {
			for _, grain := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
				pp, err := postpass.Translate(prog, postpass.Options{NumProcs: procs, Grain: grain, LiveOutAll: true})
				if err != nil {
					return nil, err
				}
				cl, err := cluster.New(procs, cluster.DefaultParams())
				if err != nil {
					return nil, err
				}
				key := fmt.Sprintf("p%d/%s/%s", procs, grain, mode)
				res, err := RunParallel(pp, cl, mode)
				runs[key] = record(prog, res, err)
			}
		}
	}
	return runs, nil
}

// TestLoweredMatchesGolden holds the lowered evaluator to the recorded
// behaviour of the tree-walker it replaced: program output, virtual
// elapsed picoseconds, communication totals and every bit of the
// master's final memory, over 206 programs × 14 configurations.
func TestLoweredMatchesGolden(t *testing.T) {
	if testing.Short() && !golden.Updating() {
		t.Skip("golden sweep skipped in -short mode")
	}
	progs := goldenPrograms(t)
	names := make([]string, 0, len(progs))
	for name := range progs {
		names = append(names, name)
	}
	sort.Strings(names)
	// One program per line, in name order: compact, and a model change
	// shows up as a per-program diff.
	blob := []byte("{")
	for i, name := range names {
		runs, err := goldenRuns(progs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		js, err := json.Marshal(runs)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			blob = append(blob, ',')
		}
		blob = append(blob, fmt.Sprintf("\n%q: %s", name, js)...)
	}
	golden.Check(t, goldenPath, append(blob, "\n}\n"...))
}
