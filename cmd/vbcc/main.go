// Command vbcc is the compiler driver: it runs the Polaris-style front
// end and the MPI-2 postpass over a Fortran 77 source file and reports
// what the compiler found and generated.
//
// Usage:
//
//	vbcc [-procs N] [-grain fine|middle|coarse|auto] [-fabric name] [-coalesce]
//	     [-explain] [-avpg] [-emit] [-spmd] [-diagram] [-passes]
//	     [-dump-after pass|all] [-trace out.json] file.f
//
// With no file, source is read from standard input. -trace exports the
// pass pipeline's timings as Chrome trace-event JSON (a "compiler"
// track loadable in Perfetto — the same file format vbrun -trace
// writes for whole runs).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/core"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
	"vbuscluster/internal/postpass"
	vbtrace "vbuscluster/internal/trace"
)

func main() {
	procs := flag.Int("procs", 4, "SPMD process count")
	grainName := flag.String("grain", "fine", "communication granularity: fine, middle, coarse or auto")
	explain := flag.Bool("explain", false, "print per-loop analysis annotations")
	avpgDump := flag.Bool("avpg", false, "print the array-value-propagation graph")
	emit := flag.Bool("emit", false, "print the transformed program (inlined, loops annotated) as Fortran source")
	spmd := flag.Bool("spmd", false, "print the generated SPMD program (Fortran 77 with MPI-2 calls)")
	diagram := flag.Bool("diagram", false, "print access-movement diagrams for each communicated region (the paper's Fig. 2-4 pictures)")
	passes := flag.Bool("passes", false, "print the pass pipeline with per-pass wall time")
	dumpAfter := flag.String("dump-after", "", "dump the IR after the named pass (a name from -passes, or 'all')")
	fabric := flag.String("fabric", "", cliutil.FabricFlagUsage("interconnect backend priced by auto-grain: "))
	traceOut := flag.String("trace", "", "write the pass pipeline's timings as Chrome trace-event JSON to this file")
	coalesce := flag.Bool("coalesce", false, "enable the pack-and-coalesce stage: strided transfers past the NIC's crossover go as packed DMA bursts")
	flag.Parse()

	check(cliutil.ValidateFabric(*fabric))
	auto := *grainName == "auto"
	var grain lmad.Grain
	if !auto {
		var err error
		grain, err = lmad.ParseGrain(*grainName)
		check(err)
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

	if *dumpAfter != "" && *dumpAfter != "all" {
		known := false
		for _, p := range core.Passes() {
			if p.Name == *dumpAfter {
				known = true
				break
			}
		}
		if !known {
			var names []string
			for _, p := range core.Passes() {
				names = append(names, p.Name)
			}
			check(fmt.Errorf("unknown pass %q for -dump-after (passes: %s, or 'all')", *dumpAfter, strings.Join(names, ", ")))
		}
	}
	var trace *core.PassTrace
	if *passes || *dumpAfter != "" || *traceOut != "" {
		trace = &core.PassTrace{DumpAfter: *dumpAfter}
	}
	c, err := core.Compile(string(src), core.Options{
		NumProcs:  *procs,
		Grain:     grain,
		AutoGrain: auto,
		Fabric:    *fabric,
		Trace:     trace,
		Coalesce:  *coalesce,
	})
	check(err)
	if *passes {
		fmt.Println("pass pipeline:")
		fmt.Print(trace.String())
		fmt.Println()
	}
	for _, d := range trace.DumpsList() {
		fmt.Printf("--- IR after %s:\n%s\n", d.Pass, d.Text)
	}
	if auto {
		fmt.Fprintf(os.Stderr, "auto-grain selected: %v\n", c.Grain())
	}

	if *explain {
		fmt.Println("loop analysis:")
		f77.WalkStmts(c.Prog.Main().Body, func(s f77.Stmt) bool {
			if loop, ok := s.(*f77.DoLoop); ok {
				fmt.Printf("  line %d: %s\n", loop.Line(), analysis.Explain(loop))
			}
			return true
		})
		fmt.Println()
	}
	if *emit {
		fmt.Print(f77.Format(c.Prog))
		fmt.Println()
	}
	if *spmd {
		fmt.Print(postpass.EmitSPMD(c.SPMD))
		fmt.Println()
	}
	fmt.Print(c.Report())
	if *diagram {
		fmt.Println("\naccess diagrams (first 72 cells):")
		for _, r := range c.SPMD.Regions {
			if r.Par == nil {
				continue
			}
			ops := append(append([]*postpass.CommOp{}, r.Par.Scatters...), r.Par.Collects...)
			for _, op := range ops {
				cells := int(op.Acc.L.High()) + 1
				if cells > 72 {
					cells = 72
				}
				fmt.Print(op.Acc.L.Diagram(cells))
			}
		}
	}
	if *avpgDump {
		fmt.Println("\nAVPG (array-value-propagation graph):")
		fmt.Print(c.SPMD.Graph.String())
	}
	if *traceOut != "" {
		rec := vbtrace.New()
		trace.AddToRecorder(rec)
		f, err := os.Create(*traceOut)
		check(err)
		check(rec.WriteChrome(f))
		check(f.Close())
		fmt.Fprintf(os.Stderr, "vbcc: wrote %d pass spans to %s\n", rec.Len(), *traceOut)
	}
}

func check(err error) { cliutil.Check("vbcc", err) }
