package core

import (
	"fmt"
	"strings"
	"time"

	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// Pass identifies one named stage of the compiler pipeline. The
// pipeline is the paper's Figure 1 unrolled: the front-end analysis
// passes followed by the MPI-2 postpass interior stages.
type Pass struct {
	Name string
	Desc string
}

// Passes returns the canonical ordered pipeline Compile runs. The
// grain-select pass only executes under Options.AutoGrain; in that mode
// partition runs once, since it never reads the grain, and the postpass
// stages after it repeat once per candidate grain.
func Passes() []Pass {
	return []Pass{
		{"parse", "Fortran 77 source to AST"},
		{"inline", "inline subroutine calls into the main unit"},
		{"const-prop", "fold and propagate compile-time constants"},
		{"induction", "substitute induction variables, refold constants"},
		{"parallel-detect", "mark DO loops safe to run in parallel"},
		{"partition", "resolve loop bounds, analyze split LMAD regions"},
		{"spmdize", "segment main into sequential/parallel regions"},
		{"scatter-collect", "generate comm ops from split LMADs (§5.4)"},
		{"grain-opt", "§5.6 race check: demote unsafe approximate collects"},
		{"coalesce", "pack strided transfers past the NIC's pack/PIO crossover"},
		{"avpg", "array-value propagation graph: eliminate redundant comm"},
		{"env-gen", "MPI environment generation: memory windows (§5.1)"},
		{"resilience", "group regions into checkpoint epochs for restart"},
		{"grain-select", "price each grain with the interconnect model, keep cheapest"},
	}
}

// passDesc maps a pass name to its canonical description.
var passDesc = func() map[string]string {
	m := make(map[string]string)
	for _, p := range Passes() {
		m[p.Name] = p.Desc
	}
	return m
}()

// PassRecord is one executed pass with its wall-clock time and a short
// note about what it did.
type PassRecord struct {
	Pass
	Wall time.Duration
	Note string
}

// PassDump is the IR snapshot captured after one pass.
type PassDump struct {
	Pass string
	Text string
}

// PassTrace collects per-pass timing and optional IR/LMAD dumps during
// Compile. A nil *PassTrace is valid and records nothing (the passes
// still run). Surfaced through vbcc -passes.
type PassTrace struct {
	// DumpAfter selects a pass name whose post-state is captured into
	// Dumps ("all" captures every pass; "" none).
	DumpAfter string
	Records   []PassRecord
	Dumps     []PassDump
}

// record appends one executed pass. dump may be nil when the pass has
// no meaningful IR snapshot.
func (t *PassTrace) record(name string, wall time.Duration, note string, dump func() string) {
	if t == nil {
		return
	}
	t.Records = append(t.Records, PassRecord{
		Pass: Pass{Name: name, Desc: passDesc[name]},
		Wall: wall,
		Note: note,
	})
	if dump != nil && (t.DumpAfter == "all" || t.DumpAfter == name) {
		t.Dumps = append(t.Dumps, PassDump{Pass: name, Text: dump()})
	}
}

// run times fn as the named pass and records it. fn returns the note;
// on error the pass is recorded with the error as its note and the
// error propagates.
func (t *PassTrace) run(name string, fn func() (string, error), dump func() string) error {
	start := time.Now()
	note, err := fn()
	if err != nil {
		t.record(name, time.Since(start), "error: "+err.Error(), nil)
		return err
	}
	t.record(name, time.Since(start), note, dump)
	return nil
}

// AddToRecorder folds the executed passes into an event recorder as a
// compiler track (rank -1): back-to-back spans whose lengths are the
// passes' wall-clock times, so `vbrun -trace` / `vbcc -trace` export
// compile and run phases into one Perfetto-loadable timeline. Safe on
// a nil trace or nil recorder.
func (t *PassTrace) AddToRecorder(r *trace.Recorder) {
	if t == nil || r == nil {
		return
	}
	var cursor sim.Time
	for _, rec := range t.Records {
		d := sim.Time(rec.Wall.Nanoseconds()) * sim.Nanosecond
		if d < 0 {
			d = 0
		}
		r.Add(trace.Event{
			Rank:   trace.CompilerRank,
			Op:     rec.Name,
			Peer:   -1,
			Begin:  cursor,
			End:    cursor + d,
			Detail: rec.Note,
		})
		cursor += d
	}
}

// DumpsList returns the captured IR dumps; safe on a nil trace.
func (t *PassTrace) DumpsList() []PassDump {
	if t == nil {
		return nil
	}
	return t.Dumps
}

// String renders the trace as an aligned table.
func (t *PassTrace) String() string {
	if t == nil || len(t.Records) == 0 {
		return ""
	}
	nameW := len("pass")
	for _, r := range t.Records {
		if len(r.Name) > nameW {
			nameW = len(r.Name)
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-*s  %12s  %s\n", nameW, "pass", "wall", "note")
	for _, r := range t.Records {
		fmt.Fprintf(&sb, "%-*s  %12s  %s\n", nameW, r.Name, r.Wall.Round(time.Microsecond), r.Note)
	}
	return sb.String()
}
