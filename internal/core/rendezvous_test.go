package core_test

import (
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/golden"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/trace"
)

// traceDigest is the SHA-256 of every rank event of rec in the
// recorder's canonical order, each field written out in full. The
// compiler track is left out: its spans are wall-clock measurements.
func traceDigest(rec *trace.Recorder) string {
	h := sha256.New()
	for _, e := range rec.Events() {
		if e.Rank == trace.CompilerRank {
			continue
		}
		fmt.Fprintf(h, "%d %s %d %d %d %d %d %d %q\n",
			e.Rank, e.Op, e.Peer, e.Bytes, e.Payload, e.Transport, e.Begin, e.End, e.Detail)
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// pinRun renders one traced run's fixed points: every rank's final
// clock, communication time and communication-op count, and the digest
// of its event list.
func pinRun(res *interp.Result, rec *trace.Recorder) string {
	rep := res.Report
	return fmt.Sprintf("clocks=%d comm=%d ops=%d trace=%s",
		rep.Clocks, rep.CommTime, rep.CommOps, traceDigest(rec))
}

// TestRendezvousFixedPoints pins the virtual-time outcome of MM and
// SWIM runs (and of a dot-product reduction) on 1, 4 and 7 ranks, with one-sided and lock-based
// reductions, in Timing and Full mode, traced: per-rank clocks,
// CommTime and CommOps, and a digest of the full event list. It also
// pins resilient MM runs whose crashed rank fails inside window
// creation (its first or second operation): their output, recovery
// count and timeline. The runtime's rendezvous may change how ranks
// meet on the host; none of these numbers may move with it.
func TestRendezvousFixedPoints(t *testing.T) {
	var b strings.Builder
	for _, prog := range []struct {
		name string
		src  string
	}{
		{"mm24", bench.MMSource(24)},
		{"swim32", bench.SwimSource(32, 32)},
		// MM and SWIM have no reductions; this one gives the
		// lock-based runs their one-cell windows.
		{"dotsum", lockRedSrc},
	} {
		for _, procs := range []int{1, 4, 7} {
			for _, locked := range []bool{false, true} {
				c := mustCompile(t, prog.src, core.Options{NumProcs: procs, Grain: lmad.Fine, LockReductions: locked})
				reds := "one-sided"
				if locked {
					reds = "locked"
				}
				for _, mode := range []core.Mode{core.Timing, core.Full} {
					rec := trace.New()
					res, err := c.RunParallelWith(mode, core.RunParams{Recorder: rec})
					if err != nil {
						t.Fatalf("%s P=%d %s %v: %v", prog.name, procs, reds, mode, err)
					}
					fmt.Fprintf(&b, "%s P=%d %s %v %s\n", prog.name, procs, reds, mode, pinRun(res, rec))
				}
			}
		}
	}
	for _, ops := range []int{0, 1} {
		spec := fmt.Sprintf("seed=1,crashafter=1/%d", ops)
		inj, err := fault.FromString(spec)
		if err != nil {
			t.Fatal(err)
		}
		c := mustCompile(t, bench.MMSource(24), core.Options{NumProcs: 4, Grain: lmad.Fine, Resilient: true, CkptEvery: 1})
		rec := trace.New()
		res, err := c.RunParallelWith(core.Full, core.RunParams{Faults: inj, Recorder: rec})
		if err != nil {
			t.Fatalf("resilient run under %s: %v", spec, err)
		}
		fmt.Fprintf(&b, "mm24 resilient %s recoveries=%d checkpoints=%d output=%q %s\n",
			spec, res.Recoveries, res.Checkpoints, res.Output, pinRun(res, rec))
	}
	golden.Check(t, "testdata/rendezvous.golden", []byte(b.String()))
}
