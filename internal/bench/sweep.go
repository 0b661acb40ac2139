package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/lmad"
)

// Env is everything a caller may vary about a sweep run — the vbbench
// flags. The zero value runs the paper's configuration at full size.
type Env struct {
	// Quick selects each sweep's reduced problem sizes.
	Quick bool
	// Fabric names the interconnect backend ("" = the default V-Bus).
	Fabric string
	// Procs is the rank count of the fixed-size sweeps (0 = the
	// paper's 4).
	Procs int
	// Seed drives fault schedules and forwarder jitter; 0 means each
	// sweep's documented default (1 for faultsweep and killsweep, 42
	// for chaos and peers).
	Seed uint64
	// Faults and Coalesce adjust the compile options of the table1,
	// table2, extra and scalesweep cells (vbbench -faults, -coalesce).
	Faults   *fault.Injector
	Coalesce bool
}

func (e Env) procs() int {
	if e.Procs == 0 {
		return 4
	}
	return e.Procs
}

// SeedOr returns the seed, or def when none was given.
func (e Env) SeedOr(def uint64) uint64 {
	if e.Seed == 0 {
		return def
	}
	return e.Seed
}

// options builds the compile options of one table cell.
func (e Env) options(procs int, grain lmad.Grain) core.Options {
	return core.Options{NumProcs: procs, Grain: grain, Fabric: e.Fabric, Faults: e.Faults, Coalesce: e.Coalesce}
}

// Sized picks a sweep parameter by Env.Quick.
func Sized[T any](quick bool, reduced, full T) T {
	if quick {
		return reduced
	}
	return full
}

// Table is one printed table of a report.
type Table struct {
	Title  string
	Header string // column names; "" prints no header line
	// RowFormat is the fmt format of one row, newline included.
	RowFormat string
	Rows      [][]any
}

// Add appends one row.
func (t *Table) Add(vals ...any) { t.Rows = append(t.Rows, vals) }

// String renders the title, the header and every row.
func (t Table) String() string {
	var sb strings.Builder
	sb.WriteString(t.Title + "\n")
	if t.Header != "" {
		sb.WriteString(t.Header + "\n")
	}
	for _, r := range t.Rows {
		fmt.Fprintf(&sb, t.RowFormat, r...)
	}
	return sb.String()
}

// cell is one value of a pivoted grid.
type cell struct {
	row, col string
	val      float64
}

// pivot renders cells as a tab-separated grid, one line per distinct
// row and one column per distinct col, both in first-seen order, each
// value printed with format.
func pivot(title, corner, format string, cells []cell) Table {
	var rows, cols []string
	at := map[[2]string]float64{}
	for _, c := range cells {
		if !slices.Contains(rows, c.row) {
			rows = append(rows, c.row)
		}
		if !slices.Contains(cols, c.col) {
			cols = append(cols, c.col)
		}
		at[[2]string{c.row, c.col}] = c.val
	}
	t := Table{
		Title:     title,
		Header:    corner + "\t" + strings.Join(cols, "\t"),
		RowFormat: "%s" + strings.Repeat("\t"+format, len(cols)) + "\n",
	}
	for _, r := range rows {
		line := []any{r}
		for _, c := range cols {
			line = append(line, at[[2]string{r, c}])
		}
		t.Rows = append(t.Rows, line)
	}
	return t
}

// Section is a sweep's machine-readable result and where it is kept:
// Value goes under Key in the checked-in JSON document File.
type Section struct {
	File   string
	Schema string // the document's "schema" tag when File is new
	Key    string
	Value  any
}

// Write folds the section into its file, preserving every other
// section already there. The document is encoded before the file is
// opened, so a value that cannot be marshalled leaves the file as it
// was.
func (s Section) Write() error {
	doc := map[string]any{"schema": s.Schema}
	if data, err := os.ReadFile(s.File); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("bench: %s exists but is not JSON: %w", s.File, err)
		}
	}
	doc[s.Key] = s.Value
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("bench: encoding %q for %s: %w", s.Key, s.File, err)
	}
	return os.WriteFile(s.File, append(out, '\n'), 0o644)
}

// Report is what a sweep produced: its printed tables and at most one
// JSON section (vbbench -json).
type Report struct {
	Tables  []Table
	Section *Section
}

// String renders every table, each followed by a blank line — what
// vbbench prints on stdout.
func (r Report) String() string {
	var sb strings.Builder
	for _, t := range r.Tables {
		sb.WriteString(t.String() + "\n")
	}
	return sb.String()
}

// Sweep is one registered experiment.
type Sweep struct {
	Name string
	Doc  string
	Run  func(Env) (Report, error)
}

// sweeps is the registry, in `vbbench -sweep all` order. The model
// sweeps are listed here; internal/bench/serve appends the host-timed
// service sweeps from its init (bench must not import jobs).
var sweeps = []Sweep{
	{"table1", "Table 1: MM speedups by size and node count", runTable1},
	{"table2", "Table 2: communication time by granularity for MM, SWIM and CFFT2INIT", runTable2},
	{"micro", "§2 card claims: SKWP bandwidth, latency, broadcast", runMicroSweep},
	{"extra", "supplementary speedups: SWIM and CFFT2INIT at coarse grain, MM up to 16 nodes", runExtra},
	{"crossover", "comm time vs write stride: where fine beats middle/coarse", runCrossover},
	{"profile", "communication matrices of the Table 2 programs", runProfile},
	{"faultsweep", "completion time and delivered bandwidth vs flit-drop rate, payload-verified", runFaultSweep},
	{"killsweep", "checkpoint/restart survival vs crash point, payload-verified", runKillSweep},
	{"coalsweep", "pack-vs-PIO crossover of strided PUTs, payload-verified", runCoalSweep},
	{"rdmasweep", "five-fabric comparison and the rdma eager/rendezvous switch, model-exact", runRdmaSweep},
	{"scalesweep", "weak scaling 4..1024 ranks across fabrics (BENCH_scale.json)", runScaleSweep},
}

// Register adds a sweep to the registry.
func Register(s Sweep) { sweeps = append(sweeps, s) }

// Sweeps lists the registry in run order.
func Sweeps() []Sweep { return sweeps }

// Lookup finds a sweep by name.
func Lookup(name string) (Sweep, bool) {
	for _, s := range sweeps {
		if s.Name == name {
			return s, true
		}
	}
	return Sweep{}, false
}
