// Command vbrun compiles a Fortran 77 program and executes it on the
// simulated V-Bus PC-cluster, printing the program's output and a
// virtual-time report.
//
// Usage:
//
//	vbrun [-procs N] [-grain g] [-fabric vbus|vbus3d|ethernet|ideal] [-seq] [-mode full|timing] [-trace out.json] [-profile] [-faults spec] [-resilient [-ckpt-every N] [-ckpt-dir d]] file.f
//
// -trace writes the run's per-rank event timeline (plus the compiler's
// pass spans as a "compiler" track) as Chrome trace-event JSON,
// loadable in Perfetto or chrome://tracing. -profile prints the
// derived per-rank counters and the communication matrix.
//
// -faults injects deterministic faults from a spec string such as
// "seed=1,flitdrop=1e-3,linkdown=0-1@1ms+2ms" (see internal/fault for
// the grammar). Same spec, same timeline: runs are replayable.
//
// -resilient compiles the program into checkpoint epochs and runs it
// under coordinated checkpoint/restart: if a rank crashes (e.g. a
// crashafter= fault), the survivors shrink the communicator, restore
// the last checkpoint and replay. -ckpt-every sets the checkpoint
// cadence in parallel regions; -ckpt-dir persists the checkpoint
// blobs to disk for inspection.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/lmad"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
	"vbuscluster/internal/trace"
)

func main() {
	procs := flag.Int("procs", 4, "SPMD process count (ignored with -seq)")
	grainName := flag.String("grain", "fine", "communication granularity: fine, middle, coarse or auto")
	seq := flag.Bool("seq", false, "run the sequential baseline instead of the SPMD program")
	profile := flag.Bool("profile", false, "print the per-region, per-rank and communication-matrix profiles")
	modeName := flag.String("mode", "full", "execution mode: full or timing")
	fabric := flag.String("fabric", "", cliutil.FabricFlagUsage("interconnect backend: "))
	traceOut := flag.String("trace", "", "write the run's timeline as Chrome trace-event JSON to this file (open in Perfetto)")
	faultSpec := flag.String("faults", "", "deterministic fault-injection spec, e.g. 'seed=1,flitdrop=1e-3' (see internal/fault)")
	resilient := flag.Bool("resilient", false, "run under coordinated checkpoint/restart, surviving rank crashes")
	ckptEvery := flag.Int("ckpt-every", 1, "checkpoint cadence in parallel regions (with -resilient)")
	ckptDir := flag.String("ckpt-dir", "", "persist checkpoint blobs to this directory (with -resilient)")
	coalesce := flag.Bool("coalesce", false, "enable the pack-and-coalesce stage: strided transfers past the NIC's crossover go as packed DMA bursts")
	flag.Parse()

	if *resilient && *seq {
		check(fmt.Errorf("-resilient and -seq are mutually exclusive"))
	}
	if *ckptEvery < 1 {
		check(fmt.Errorf("-ckpt-every must be at least 1"))
	}

	check(cliutil.ValidateFabric(*fabric))
	var inj *fault.Injector
	if *faultSpec != "" {
		var err error
		inj, err = fault.FromString(*faultSpec)
		check(err)
	}
	auto := *grainName == "auto"
	var grain lmad.Grain
	if !auto {
		var err error
		grain, err = lmad.ParseGrain(*grainName)
		check(err)
	}
	var mode core.Mode
	switch *modeName {
	case "full":
		mode = core.Full
	case "timing":
		mode = core.Timing
	default:
		check(fmt.Errorf("unknown mode %q", *modeName))
	}

	var src []byte
	var err error
	if flag.NArg() >= 1 {
		src, err = os.ReadFile(flag.Arg(0))
		check(err)
	} else {
		src, err = io.ReadAll(os.Stdin)
		check(err)
	}

	var rec *trace.Recorder
	if *traceOut != "" || *profile {
		rec = trace.New()
	}
	var passTrace *core.PassTrace
	if *traceOut != "" {
		passTrace = &core.PassTrace{}
	}
	c, err := core.Compile(string(src), core.Options{
		NumProcs:  *procs,
		Grain:     grain,
		AutoGrain: auto,
		Fabric:    *fabric,
		Trace:     passTrace,
		Recorder:  rec,
		Faults:    inj,
		Resilient: *resilient,
		CkptEvery: *ckptEvery,
		CkptDir:   *ckptDir,
		Coalesce:  *coalesce,
	})
	check(err)
	if auto {
		fmt.Fprintf(os.Stderr, "auto-grain selected: %v\n", c.Grain())
	}

	var res *interp.Result
	switch {
	case *seq:
		res, err = c.RunSequential(mode)
	case *resilient:
		res, err = c.RunResilient(mode)
	default:
		res, err = c.RunParallel(mode)
	}
	check(err)

	fmt.Print(res.Output)
	if *profile && len(res.Regions) > 0 {
		fmt.Println("--- per-region profile:")
		fmt.Print(interp.FormatRegions(res.Regions))
	}
	if *profile && rec != nil {
		fmt.Println("--- per-rank profile:")
		fmt.Print(rec.Profile(res.Report.Clocks))
	}
	fmt.Printf("--- virtual time: %v", res.Elapsed)
	if !*seq {
		fmt.Printf("  (comm %v over %d ops, %d bytes)",
			res.Report.TotalXferTime(), res.Report.TotalCommOps(), res.Report.TotalCommBytes())
	}
	fmt.Println()
	if *resilient {
		fmt.Printf("--- resilience: %d checkpoints, %d recoveries\n",
			res.Checkpoints, res.Recoveries)
	}

	if *traceOut != "" {
		passTrace.AddToRecorder(rec)
		f, err := os.Create(*traceOut)
		check(err)
		check(rec.WriteChrome(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "vbrun: wrote %d trace events to %s\n", rec.Len(), *traceOut)
	}
}

func check(err error) { cliutil.Check("vbrun", err) }
