package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// A recorder attached through Options flows to the run's cluster and
// fills with events whose bytes reconcile with the run report.
func TestRecorderWiring(t *testing.T) {
	rec := trace.New()
	c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.RunParallel(Timing)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Len() == 0 {
		t.Fatal("traced run recorded no events")
	}
	byRank := map[int]int64{}
	for _, e := range rec.Events() {
		byRank[e.Rank] += e.Bytes
	}
	for r, want := range res.Report.CommBytes {
		if byRank[r] != want {
			t.Fatalf("rank %d traced %d bytes, report says %d", r, byRank[r], want)
		}
	}
}

// Attaching a recorder must not change virtual time or accounting by a
// single picosecond — tracing is observation only.
func TestRecorderDoesNotChangeTiming(t *testing.T) {
	run := func(rec *trace.Recorder) (sim.Time, sim.Time, int64) {
		c, err := Compile(testSrc, Options{NumProcs: 4, Grain: lmad.Fine, Recorder: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.RunParallel(Timing)
		if err != nil {
			t.Fatal(err)
		}
		return res.Elapsed, res.Report.TotalXferTime(), res.Report.TotalCommBytes()
	}
	e0, x0, b0 := run(nil)
	e1, x1, b1 := run(trace.New())
	if e0 != e1 || x0 != x1 || b0 != b1 {
		t.Fatalf("tracing perturbed the run: elapsed %v vs %v, xfer %v vs %v, bytes %d vs %d",
			e0, e1, x0, x1, b0, b1)
	}
}

// PassTrace.AddToRecorder lays the pass pipeline onto the compiler
// track as contiguous spans in pipeline order.
func TestPassTraceAddToRecorder(t *testing.T) {
	pt := &PassTrace{}
	if _, err := Compile(testSrc, Options{NumProcs: 4, Trace: pt}); err != nil {
		t.Fatal(err)
	}
	rec := trace.New()
	pt.AddToRecorder(rec)
	evs := rec.Events()
	if len(evs) != len(pt.Records) {
		t.Fatalf("recorder has %d spans, trace has %d passes", len(evs), len(pt.Records))
	}
	var cursor sim.Time
	for i, e := range evs {
		if e.Rank != trace.CompilerRank {
			t.Fatalf("pass span %d on rank %d, want %d", i, e.Rank, trace.CompilerRank)
		}
		if e.Begin != cursor {
			t.Fatalf("pass span %d begins at %v, want contiguous %v", i, e.Begin, cursor)
		}
		if e.End < e.Begin {
			t.Fatalf("pass span %d has end < begin", i)
		}
		cursor = e.End
	}
	// Pass names must match the pipeline order.
	for i, r := range pt.Records {
		if evs[i].Op != r.Name {
			t.Fatalf("span %d is %q, pipeline pass is %q", i, evs[i].Op, r.Name)
		}
	}
	// nil safety both ways.
	pt.AddToRecorder(nil)
	(*PassTrace)(nil).AddToRecorder(rec)
}

// Timing mode must trace exactly what Full mode traces: every rank
// event's op, peer, bytes, payload, interval and transport, over the
// sample corpus under each transfer scheme — push and pull one-sided, and
// two-sided — at the fine and coarse grains. Only the compiler track is
// left out; compile-pass spans are wall-clock measurements.
func TestFullAndTimingTracesAgree(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.f")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs found: %v", err)
	}
	type key struct {
		rank, peer     int
		op             string
		bytes, payload int64
		begin, end     sim.Time
		transport      interconnect.Transport
	}
	events := func(t *testing.T, c *Compiled, mode Mode) []key {
		rec := trace.New()
		if _, err := c.RunParallelWith(mode, RunParams{Recorder: rec}); err != nil {
			t.Fatalf("%v run: %v", mode, err)
		}
		var out []key
		for _, e := range rec.Events() {
			if e.Rank != trace.CompilerRank {
				out = append(out, key{e.Rank, e.Peer, e.Op, e.Bytes, e.Payload, e.Begin, e.End, e.Transport})
			}
		}
		return out
	}
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range []struct {
			name string
			opts Options
		}{
			{"push", Options{}},
			{"pull", Options{PullScatter: true}},
			{"two-sided", Options{TwoSided: true}},
		} {
			for _, grain := range []lmad.Grain{lmad.Fine, lmad.Coarse} {
				t.Run(fmt.Sprintf("%s/%s/%v", filepath.Base(file), scheme.name, grain), func(t *testing.T) {
					opts := scheme.opts
					opts.NumProcs, opts.Grain = 4, grain
					c, err := Compile(string(src), opts)
					if err != nil {
						t.Fatal(err)
					}
					full, timing := events(t, c, Full), events(t, c, Timing)
					for i := 0; i < len(full) && i < len(timing); i++ {
						if full[i] != timing[i] {
							t.Fatalf("event %d: full %+v, timing %+v", i, full[i], timing[i])
						}
					}
					if len(full) != len(timing) {
						t.Fatalf("full traced %d events, timing %d", len(full), len(timing))
					}
				})
			}
		}
	}
}
