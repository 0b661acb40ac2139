package interp

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"

	"vbuscluster/internal/ckpt"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/sim"
)

// checkpoint is the coordinated checkpoint at the boundary before
// epoch next: every rank joins the quiesce, then the master commits the
// snapshot of the consistent cut. A crash during the quiesce replays
// from the previous checkpoint.
func (s *supervisor) checkpoint(r *rankRun, next int) error {
	p, env := r.p, r.env
	var snap *ckpt.Snapshot
	size := 0
	if p.Rank() == 0 {
		snap = env.buildSnapshot(next, r.halted, p.World().Nodes(), &s.out)
		size = len(snap.Encode())
	}
	if err := p.Checkpoint(size); err != nil {
		return err
	}
	if p.Rank() != 0 {
		return nil
	}
	// The quiesce advanced every clock; re-stamp them so a restore sees
	// the post-checkpoint cut (same encoded size — the clock section is
	// fixed-width).
	snap.Clocks = clocksOf(env.cl)
	blob := snap.Encode()
	s.checkpoints++
	s.last, s.lastLen = snap, len(blob)
	if s.dir == "" {
		return nil
	}
	return os.WriteFile(filepath.Join(s.dir, fmt.Sprintf("epoch-%03d.vbck", snap.Epoch)), blob, 0o644)
}

// buildSnapshot captures the master's consistent cut at an epoch
// boundary: next epoch to run, halt flag, surviving nodes, all
// physical clocks, accumulated output, region profile and every
// program array by symbol name.
func (env *Env) buildSnapshot(epoch int, halted bool, nodes []int, out *bytes.Buffer) *ckpt.Snapshot {
	s := &ckpt.Snapshot{
		Epoch:  epoch,
		Halted: halted,
		Nodes:  nodes,
		Clocks: clocksOf(env.cl),
		Output: append([]byte(nil), out.Bytes()...),
		Arrays: map[string][]float64{},
	}
	for _, r := range env.regionStats {
		s.Regions = append(s.Regions, ckpt.Region{
			Index: r.Index, Parallel: r.Parallel, LoopVar: r.LoopVar,
			Line: r.Line, Elapsed: r.Elapsed, Comm: r.Comm,
		})
	}
	// A checkpoint observes every array, so a Timing run's untouched
	// ones come into existence here: the blob — and what the quiesce
	// is charged for it — is the Full run's.
	env.eachMainCell(true, func(name string, buf []float64) {
		s.Arrays[name] = append([]float64(nil), buf...)
	})
	return s
}

// restoreSnapshot loads a checkpoint back into a fresh master env:
// every program array takes its checkpointed values (symbols the
// snapshot does not know stay zero, like a fresh start would leave
// them), and the region profile continues from the checkpointed rows.
func (env *Env) restoreSnapshot(s *ckpt.Snapshot) (err error) {
	env.eachMainCell(true, func(name string, buf []float64) {
		vals, ok := s.Arrays[name]
		if !ok || err != nil {
			return
		}
		if len(vals) != len(buf) {
			err = fmt.Errorf("interp: checkpoint array %s has %d cells, program needs %d", name, len(vals), len(buf))
			return
		}
		copy(buf, vals)
	})
	if err != nil {
		return err
	}
	env.regionStats = env.regionStats[:0]
	for _, r := range s.Regions {
		env.regionStats = append(env.regionStats, RegionStat{
			Index: r.Index, Parallel: r.Parallel, LoopVar: r.LoopVar,
			Line: r.Line, Elapsed: r.Elapsed, Comm: r.Comm,
		})
	}
	return nil
}

// clocksOf samples every physical node's virtual clock.
func clocksOf(cl *cluster.Cluster) []sim.Time {
	out := make([]sim.Time, cl.N())
	for i := range out {
		out[i] = cl.Clock(i)
	}
	return out
}
