package bench

// Fault sweep: the robustness experiment the reliable-transport layer
// enables. The same program runs under increasing flit-drop rates; the
// go-back-N retransmission keeps every payload byte-identical to the
// fault-free run while completion time grows monotonically with the
// injected rate (the injector's drop set at rate p is a subset of the
// set at any p' > p by construction).

import (
	"fmt"

	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// runFaultSweep runs MM on env.Procs ranks in full (data-moving) mode
// at each flit-drop rate, all derived from env.Seed (default 1). Per
// rate it reports the virtual completion time, the total transfer time
// including retries, the traced trace.OpRetry intervals (time, count
// and the wire bytes go-back-N re-sent), delivered payload bandwidth
// (accounted bytes over elapsed time) and whether every final array
// matched the fault-free run bit for bit.
func runFaultSweep(env Env) (Report, error) {
	rates := []float64{0, 1e-4, 1e-3, 1e-2, 5e-2}
	specs := make([]string, len(rates))
	for i, rate := range rates {
		if rate > 0 {
			specs[i] = fmt.Sprintf("seed=%d,flitdrop=%g", env.SeedOr(1), rate)
		}
	}
	t := Table{
		Title:     "Fault sweep: completion time and delivered bandwidth vs flit-drop rate",
		Header:    "rate\telapsed\tcomm\tretry-time\tretries\tresent-bytes\tMB/s\tpayload",
		RowFormat: "%g\t%v\t%v\t%v\t%d\t%d\t%.1f\t%s\n",
	}
	err := injectedRuns("faultsweep", MMSource(Sized(env.Quick, 32, 64)),
		core.Options{NumProcs: env.procs(), Grain: lmad.Fine, Fabric: env.Fabric}, (*core.Compiled).RunParallel, specs,
		func(i int, res *interp.Result, events []trace.Event, verified bool) {
			if i < 0 {
				return
			}
			var retryTime sim.Time
			var retries, resent int64
			for _, ev := range events {
				if ev.Op == trace.OpRetry {
					retries++
					retryTime += ev.Duration()
					resent += ev.Payload
				}
			}
			mbps := 0.0
			if res.Elapsed > 0 {
				mbps = float64(res.Report.TotalCommBytes()) / (1 << 20) / (float64(res.Elapsed) / float64(sim.Second))
			}
			t.Add(rates[i], res.Elapsed, res.Report.TotalXferTime(), retryTime, retries, resent, mbps, payloadMark(verified))
		})
	return Report{Tables: []Table{t}}, err
}

// payloadMark renders a row's verification verdict.
func payloadMark(verified bool) string {
	if verified {
		return "ok"
	}
	return "CORRUPT"
}
