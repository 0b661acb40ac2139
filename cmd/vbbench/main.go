// Command vbbench regenerates the paper's evaluation — Table 1 (MM
// speedups), Table 2 (communication time by granularity for MM, SWIM
// and CFFT2INIT), the §2 card microbenchmarks — and the extension
// experiments, all registered as sweeps in internal/bench.
//
// Usage:
//
//	vbbench -sweep table1              # MM speedups, paper sizes (256..1024)
//	vbbench -sweep table1,table2,micro # several sweeps in one run
//	vbbench -sweep all -quick          # every registered sweep at reduced sizes
//	vbbench -sweep scalesweep -json    # also write the rows into BENCH_scale.json
//	vbbench                            # list the registered sweeps
//
// -fabric, -procs and -seed vary the sweeps that use them; -faults (a
// deterministic fault-injection spec, see internal/fault) and -coalesce
// apply to the table, extra and scale cells. Without -json no file is
// written.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"vbuscluster/internal/bench"
	_ "vbuscluster/internal/bench/serve" // register the serve, chaos and peers sweeps
	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/fault"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
)

func main() {
	names := flag.String("sweep", "", "comma-separated sweeps to run, or 'all' (empty lists them)")
	quick := flag.Bool("quick", false, "reduced problem sizes (fast)")
	procs := flag.Int("procs", 4, "processor count of the fixed-size sweeps")
	fabric := flag.String("fabric", "", cliutil.FabricFlagUsage("interconnect backend: "))
	seed := flag.Uint64("seed", 0, "seed of fault schedules and forwarder jitter (0 = each sweep's default)")
	faultSpec := flag.String("faults", "", "deterministic fault-injection spec for the table, extra and scale cells, e.g. 'seed=1,flitdrop=1e-3'")
	coalesce := flag.Bool("coalesce", false, "enable the compiler's pack-and-coalesce stage for the table, extra and scale cells")
	writeJSON := flag.Bool("json", false, "write each sweep's JSON section into its checked-in BENCH_*.json")
	flag.Parse()

	check(cliutil.ValidateFabric(*fabric))
	env := bench.Env{Quick: *quick, Fabric: *fabric, Procs: *procs, Seed: *seed, Coalesce: *coalesce}
	if *faultSpec != "" {
		inj, err := fault.FromString(*faultSpec)
		check(err)
		env.Faults = inj
	}

	var run []bench.Sweep
	for _, name := range strings.Split(*names, ",") {
		if s, ok := bench.Lookup(name); ok {
			run = append(run, s)
		} else if name == "all" {
			run = append(run, bench.Sweeps()...)
		} else {
			fmt.Fprintf(os.Stderr, "vbbench: no sweep %q; -sweep takes a comma-separated list of these, or 'all':\n", name)
			for _, s := range bench.Sweeps() {
				fmt.Fprintf(os.Stderr, "  %-11s %s\n", s.Name, s.Doc)
			}
			os.Exit(2)
		}
	}
	for _, s := range run {
		rep, err := s.Run(env)
		check(err)
		fmt.Print(rep)
		if *writeJSON && rep.Section != nil {
			check(rep.Section.Write())
			fmt.Fprintf(os.Stderr, "vbbench: wrote %s's %q section to %s\n", s.Name, rep.Section.Key, rep.Section.File)
		}
	}
}

func check(err error) { cliutil.Check("vbbench", err) }
