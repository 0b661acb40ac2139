package bench

// Kill sweep: the crash-survival experiment the checkpoint/restart
// subsystem enables. The same program runs resiliently while one rank
// is killed after an increasing operation budget — before the first
// checkpoint, between checkpoints, deep into the run. Every run must
// complete with output arrays bit-identical to the fault-free run;
// the table shows what each crash point cost in checkpoints taken,
// recovery rounds and virtual completion time.

import (
	"fmt"

	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// KillSweepRow is one crash point's outcome.
type KillSweepRow struct {
	// Ops is the killed rank's operation budget (-1 for the fault-free
	// baseline row).
	Ops int64
	// Elapsed is the run's virtual completion time.
	Elapsed sim.Time
	// Checkpoints counts committed coordinated checkpoints.
	Checkpoints int
	// Recoveries counts shrink-and-replay rounds survived.
	Recoveries int
	// CkptTime and RecoveryTime aggregate the traced checkpoint and
	// recovery intervals — what surviving the crash cost.
	CkptTime     sim.Time
	RecoveryTime sim.Time
	// Verified reports that every final array matched the fault-free
	// resilient run bit for bit.
	Verified bool
}

// killVictim is the rank the kill sweep crashes.
const killVictim = 1

// KillSweep runs MM(n) on env.Procs ranks resiliently in full mode,
// killing rank killVictim after each operation budget in ops (seeded by
// env.Seed, default 1), and verifies every recovered run's final memory
// against the fault-free resilient baseline, which is the first row. MM
// is reduction-free, so the shrunken replay must reproduce the baseline
// bytes exactly.
func KillSweep(n int, ops []int64, env Env) ([]KillSweepRow, error) {
	specs := make([]string, len(ops))
	for i, budget := range ops {
		specs[i] = fmt.Sprintf("seed=%d,crashafter=%d/%d", env.SeedOr(1), killVictim, budget)
	}
	var rows []KillSweepRow
	err := injectedRuns("killsweep", MMSource(n),
		core.Options{NumProcs: env.procs(), Grain: lmad.Fine, Fabric: env.Fabric, Resilient: true, CkptEvery: 1},
		(*core.Compiled).RunResilient, specs,
		func(i int, res *interp.Result, events []trace.Event, verified bool) {
			row := KillSweepRow{Ops: -1, Elapsed: res.Elapsed, Checkpoints: res.Checkpoints, Recoveries: res.Recoveries, Verified: verified}
			if i >= 0 {
				row.Ops = ops[i]
			}
			for _, ev := range events {
				switch ev.Op {
				case trace.OpCheckpoint:
					row.CkptTime += ev.Duration()
				case trace.OpRecovery:
					row.RecoveryTime += ev.Duration()
				}
			}
			rows = append(rows, row)
		})
	return rows, err
}

func runKillSweep(env Env) (Report, error) {
	// 0-20 crash during the first epoch (replay from program start),
	// 45 crashes after the checkpoint committed (restore + replay),
	// and 60 exceeds the victim's total operation count: a control
	// row showing an unfired budget costs nothing.
	rows, err := KillSweep(Sized(env.Quick, 24, 48), []int64{0, 5, 20, 45, 60}, env)
	if err != nil {
		return Report{}, err
	}
	t := Table{
		Title:     "Kill sweep: checkpoint/restart survival vs crash point",
		Header:    "kill@ops\telapsed\tckpts\tckpt-time\trecoveries\trecovery-time\tpayload",
		RowFormat: "%s\t%v\t%d\t%v\t%d\t%v\t%s\n",
	}
	for _, r := range rows {
		label := "none"
		if r.Ops >= 0 {
			label = fmt.Sprint(r.Ops)
		}
		t.Add(label, r.Elapsed, r.Checkpoints, r.CkptTime, r.Recoveries, r.RecoveryTime, payloadMark(r.Verified))
	}
	return Report{Tables: []Table{t}}, nil
}
