// Command vbbench regenerates the paper's evaluation: Table 1 (MM
// speedups), Table 2 (communication time by granularity for MM, SWIM
// and CFFT2INIT) and the §2 card microbenchmarks.
//
// Usage:
//
//	vbbench -table 1            # MM speedups, paper sizes (256..1024)
//	vbbench -table 2            # comm time by granularity, paper sizes
//	vbbench -micro              # §2 SKWP / latency / broadcast claims
//	vbbench -profile            # comm matrices of the Table 2 programs
//	vbbench -faultsweep         # completion time / bandwidth vs flit-drop rate
//	vbbench -killsweep          # checkpoint/restart survival vs crash point
//	vbbench -coalsweep          # pack-vs-PIO crossover of strided PUTs
//	vbbench -scalesweep         # weak scaling 4..1024 ranks across fabrics -> BENCH_scale.json
//	vbbench -corebench          # end-to-end wall-time baseline at 4 ranks -> BENCH_core.json
//	vbbench -servesweep         # closed-loop throughput vs client count against an in-process vbserve -> BENCH_serve.json
//	vbbench -chaossweep         # seeded hostile workload asserting the server's robustness invariants -> BENCH_serve.json
//	vbbench -peersweep          # three-peer federation: forwarding, mid-run kill, failover + rebalance assertions -> BENCH_serve.json
//	vbbench -benchgate          # re-run -corebench; fail on >10% events/sec regression vs BENCH_core.json
//	vbbench -all -quick         # everything at reduced sizes
//
// -faults applies a deterministic fault-injection spec (see
// internal/fault) to the Table 1/2 runs; -faultsweep runs its own
// per-rate specs.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/bench/serve"
	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/lmad"
	_ "vbuscluster/internal/nic" // register the vbus and ethernet backends
)

func main() {
	table := flag.Int("table", 0, "which table to regenerate (1 or 2); 0 with -all/-micro")
	micro := flag.Bool("micro", false, "run the §2 card microbenchmarks")
	crossover := flag.Bool("crossover", false, "sweep write stride to locate the fine/middle/coarse crossover (extension experiment)")
	extra := flag.Bool("extra", false, "supplementary speedup table for SWIM and CFFT2INIT (extension experiment)")
	all := flag.Bool("all", false, "run everything")
	quick := flag.Bool("quick", false, "reduced problem sizes (fast)")
	procs := flag.Int("procs", 4, "processor count for table 2")
	fabric := flag.String("fabric", "", cliutil.FabricFlagUsage("interconnect backend: "))
	profile := flag.Bool("profile", false, "print the traced communication matrix of each Table 2 program")
	faultSpec := flag.String("faults", "", "deterministic fault-injection spec for the table runs, e.g. 'seed=1,flitdrop=1e-3'")
	faultSweep := flag.Bool("faultsweep", false, "sweep flit-drop rates on MM, verifying payloads and reporting bandwidth/retry overhead")
	sweepSeed := flag.Uint64("faultseed", 1, "fault-injection seed for -faultsweep and -killsweep")
	killSweep := flag.Bool("killsweep", false, "sweep rank-crash points on a resilient MM run, verifying recovered payloads against the fault-free run")
	killVictim := flag.Int("killvictim", 1, "rank to crash in -killsweep")
	coalSweep := flag.Bool("coalsweep", false, "sweep strided PUT shapes to locate the pack-vs-PIO crossover, payload-verified")
	coalesce := flag.Bool("coalesce", false, "enable the compiler's pack-and-coalesce stage for the table runs")
	scaleSweep := flag.Bool("scalesweep", false, "weak-scaling sweep of MM and SWIM, 4..1024 ranks, across all fabrics")
	scaleOut := flag.String("scaleout", "BENCH_scale.json", "write the -scalesweep rows as JSON to this file ('' = stdout table only)")
	coreBench := flag.Bool("corebench", false, "end-to-end wall-time baseline of the benchmark trio at 4 ranks")
	coreOut := flag.String("coreout", "BENCH_core.json", "write the -corebench rows as JSON to this file ('' = stdout table only)")
	serveSweep := flag.Bool("servesweep", false, "closed-loop throughput sweep against an in-process vbserve job server")
	serveOut := flag.String("serveout", "BENCH_serve.json", "write the -servesweep rows as JSON to this file ('' = stdout table only)")
	serveClusters := flag.Int("serveclusters", 4, "simulated cluster (worker) count for -servesweep")
	chaosSweep := flag.Bool("chaossweep", false, "seeded chaos sweep: poison specs, worker kills, deadline storms, rate-limit floods, restart-warm replay")
	chaosSeed := flag.Uint64("chaosseed", 42, "seed for -chaossweep fault schedules (replayable)")
	chaosOut := flag.String("chaosout", "BENCH_serve.json", "merge the -chaossweep result into this JSON file under \"chaos\" ('' = stdout only)")
	peerSweep := flag.Bool("peersweep", false, "three-peer federation sweep: consistent-hash forwarding, a mid-run hard kill, failover and rebalance assertions")
	peerSeed := flag.Uint64("peerseed", 42, "seed for -peersweep forwarder jitter")
	peerOut := flag.String("peerout", "BENCH_serve.json", "merge the -peersweep result into this JSON file under \"peers\" ('' = stdout only)")
	rdmaSweep := flag.Bool("rdmasweep", false, "five-fabric comparison plus the rdma eager/rendezvous crossover table, payload-verified")
	rdmaOut := flag.String("rdmaout", "BENCH_core.json", "merge the -rdmasweep crossover row into this JSON file under \"rdma\" ('' = stdout only)")
	benchGate := flag.Bool("benchgate", false, "re-run -corebench and fail if events/sec regresses >10% vs the checked-in baseline")
	benchBase := flag.String("benchbase", "BENCH_core.json", "baseline file for -benchgate")
	flag.Parse()

	check(cliutil.ValidateFabric(*fabric))
	var tableOpts []bench.RunOption
	if *faultSpec != "" {
		inj, err := fault.FromString(*faultSpec)
		check(err)
		tableOpts = append(tableOpts, bench.WithFaults(inj))
	}
	if *coalesce {
		tableOpts = append(tableOpts, bench.WithCoalesce())
	}
	runT1 := *table == 1 || *all
	runT2 := *table == 2 || *all
	runMicro := *micro || *all
	runCross := *crossover || *all
	runExtra := *extra || *all
	runProfile := *profile || *all
	runSweep := *faultSweep || *all
	runKill := *killSweep || *all
	runCoal := *coalSweep || *all
	runScale := *scaleSweep || *all
	runCore := *coreBench || *all
	runServe := *serveSweep || *all
	runChaos := *chaosSweep || *all
	runPeers := *peerSweep || *all
	runRdma := *rdmaSweep || *all
	if !runT1 && !runT2 && !runMicro && !runCross && !runExtra && !runProfile && !runSweep && !runKill && !runCoal && !runScale && !runCore && !runServe && !runChaos && !runPeers && !runRdma && !*benchGate {
		fmt.Fprintln(os.Stderr, "nothing to do: pass -table 1, -table 2, -micro, -crossover, -extra, -profile, -faultsweep, -killsweep, -coalsweep, -rdmasweep, -scalesweep, -corebench, -servesweep, -chaossweep, -peersweep, -benchgate or -all")
		os.Exit(2)
	}

	if runT1 {
		sizes := []int{256, 512, 1024}
		if *quick {
			sizes = []int{64, 128, 256}
		}
		rows, err := bench.Table1(sizes, []int{1, 2, 4}, lmad.Fine, *fabric, tableOpts...)
		check(err)
		fmt.Println(bench.FormatTable1(rows))
		fmt.Println("raw cells:")
		for _, r := range rows {
			fmt.Printf("  MM %4d*%-4d procs=%d seq=%v par=%v speedup=%.3f\n",
				r.Size, r.Size, r.Procs, r.Seq, r.Par, r.Speedup)
		}
		fmt.Println()
	}

	if runT2 {
		mmN, swimN, cfftM := 1024, 512, 11
		if *quick {
			mmN, swimN, cfftM = 128, 128, 9
		}
		rows, err := bench.Table2(bench.Table2Benchmarks(mmN, swimN, cfftM), *procs, *fabric, tableOpts...)
		check(err)
		fmt.Println(bench.FormatTable2(rows))
		fmt.Println("raw cells:")
		for _, r := range rows {
			fmt.Printf("  %-22s %-6v comm=%-12v elapsed=%-12v msgs=%-6d bytes=%d\n",
				r.Benchmark, r.Grain, r.CommTime, r.Elapsed, r.Messages, r.Bytes)
		}
		fmt.Println()
	}

	if runMicro {
		res, err := bench.RunMicro()
		check(err)
		fmt.Println(res)
	}

	if runSweep {
		n := 64
		if *quick {
			n = 32
		}
		rates := []float64{0, 1e-4, 1e-3, 1e-2, 5e-2}
		rows, err := bench.FaultSweep(n, *procs, *sweepSeed, rates, *fabric)
		check(err)
		fmt.Println(bench.FormatFaultSweep(rows))
	}

	if runKill {
		n := 48
		if *quick {
			n = 24
		}
		// 0-20 crash during the first epoch (replay from program start),
		// 45 crashes after the checkpoint committed (restore + replay),
		// and 60 exceeds the victim's total operation count: a control
		// row showing an unfired budget costs nothing.
		ops := []int64{0, 5, 20, 45, 60}
		rows, err := bench.KillSweep(n, *procs, *killVictim, *sweepSeed, ops, *fabric)
		check(err)
		fmt.Println(bench.FormatKillSweep(rows))
	}

	if runCoal {
		elems := []int{4, 8, 16, 32, 48, 64, 128, 256, 1024, 4096}
		if *quick {
			elems = []int{8, 32, 64, 256}
		}
		points, err := bench.CoalSweep(elems, []int{2, 4, 16}, *fabric)
		check(err)
		fmt.Println(bench.FormatCoalSweep(points, *fabric))
	}

	if runScale {
		ranks := []int{4, 16, 64, 256, 1024}
		if *quick {
			ranks = []int{4, 16, 64}
		}
		fabrics := []string{"vbus", "vbus3d", "ethernet", "ideal"}
		rows, err := bench.ScaleSweep(nil, ranks, fabrics, tableOpts...)
		check(err)
		fmt.Println(bench.FormatScaleSweep(rows))
		if *scaleOut != "" {
			f, err := os.Create(*scaleOut)
			check(err)
			check(bench.WriteJSON(f, "vbbench-scalesweep/v1", rows))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "vbbench: wrote %d scale rows to %s\n", len(rows), *scaleOut)
		}
	}

	if runCore {
		rows, err := bench.CoreBench(*fabric, tableOpts...)
		check(err)
		fmt.Println(bench.FormatCoreBench(rows))
		if *coreOut != "" {
			f, err := os.Create(*coreOut)
			check(err)
			check(bench.WriteJSON(f, "vbbench-corebench/v1", rows))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "vbbench: wrote %d baseline rows to %s\n", len(rows), *coreOut)
		}
	}

	if runServe {
		clients := []int{1, 2, 4, 8, 16}
		perClient := 24
		if *quick {
			clients = []int{1, 4}
			perClient = 8
		}
		rows, err := serve.ServeSweep(clients, perClient, *serveClusters)
		check(err)
		fmt.Println(serve.FormatServeSweep(rows))
		if *serveOut != "" {
			f, err := os.Create(*serveOut)
			check(err)
			check(bench.WriteJSON(f, "vbbench-servesweep/v1", rows))
			check(f.Close())
			fmt.Fprintf(os.Stderr, "vbbench: wrote %d service rows to %s\n", len(rows), *serveOut)
		}
	}

	if runChaos {
		res, err := serve.ChaosSweep(*chaosSeed)
		check(err)
		fmt.Println(serve.FormatChaos(res))
		if *chaosOut != "" {
			check(mergeServeSection(*chaosOut, "chaos", res))
			fmt.Fprintf(os.Stderr, "vbbench: merged chaos result into %s\n", *chaosOut)
		}
	}

	if runPeers {
		res, err := serve.PeerSweep(*peerSeed)
		check(err)
		fmt.Println(serve.FormatPeers(res))
		if *peerOut != "" {
			check(mergeServeSection(*peerOut, "peers", res))
			fmt.Fprintf(os.Stderr, "vbbench: merged peer result into %s\n", *peerOut)
		}
	}

	if runRdma {
		res, err := bench.RdmaSweep(*quick)
		check(err)
		fmt.Println(bench.FormatRdmaSweep(res))
		if *rdmaOut != "" {
			check(mergeSection(*rdmaOut, "vbbench-corebench/v1", "rdma", res.Gate))
			fmt.Fprintf(os.Stderr, "vbbench: merged rdma crossover row into %s\n", *rdmaOut)
		}
	}

	if *benchGate {
		check(serve.BenchGate(*benchBase, *fabric, 3, 0.10))
		fmt.Println("bench-gate: core baseline within tolerance")
	}

	if runProfile {
		mmN, swimN, cfftM := 1024, 512, 11
		if *quick {
			mmN, swimN, cfftM = 128, 128, 9
		}
		out, err := bench.CommProfiles(bench.Table2Benchmarks(mmN, swimN, cfftM), *procs, lmad.Coarse, *fabric)
		check(err)
		fmt.Println("Communication matrices of the Table 2 programs (accounted bytes, origin row -> peer column):")
		fmt.Println(out)
	}

	if runExtra {
		swimN, cfftM := 512, 11
		if *quick {
			swimN, cfftM = 128, 9
		}
		fmt.Println("Supplementary speedups (coarse grain, best of Table 2):")
		fmt.Println("benchmark\tprocs\tspeedup")
		for name, src := range bench.Table2Benchmarks(0, swimN, cfftM) {
			if name[:2] == "MM" {
				continue // Table 1 covers MM
			}
			for _, p := range []int{1, 2, 4} {
				c, err := core.Compile(src, core.Options{NumProcs: p, Grain: lmad.Coarse, Fabric: *fabric})
				check(err)
				s, err := c.Speedup()
				check(err)
				fmt.Printf("%s\t%d\t%.3f\n", name, p, s)
			}
		}
		fmt.Println("MM scalability beyond the paper's 4 nodes (1024*1024, fine grain):")
		fmt.Println("procs\tspeedup")
		mmN := 1024
		if *quick {
			mmN = 128
		}
		for _, p := range []int{1, 2, 4, 8, 16} {
			c, err := core.Compile(bench.MMSource(mmN), core.Options{NumProcs: p, Fabric: *fabric})
			check(err)
			s, err := c.Speedup()
			check(err)
			fmt.Printf("%d\t%.3f\n", p, s)
		}
		fmt.Println()
	}

	if runCross {
		n := 1 << 15
		if *quick {
			n = 1 << 12
		}
		points, err := bench.Crossover(n, []int{1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}, *procs, *fabric)
		check(err)
		fmt.Println(bench.FormatCrossover(points))
	}
}

func check(err error) { cliutil.Check("vbbench", err) }

// mergeServeSection folds one sweep's result into the serve benchmark
// file under the given key, preserving every other section already
// there (-servesweep rows, "chaos", "peers" — all report into
// BENCH_serve.json).
func mergeServeSection(path, key string, res any) error {
	return mergeSection(path, "vbbench-servesweep/v1", key, res)
}

// mergeSection folds one sweep's result into a schema-tagged JSON
// benchmark file under the given key, preserving every other section
// already there. A missing file starts a fresh envelope with
// defaultSchema.
func mergeSection(path, defaultSchema, key string, res any) error {
	doc := map[string]interface{}{"schema": defaultSchema}
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &doc); err != nil {
			return fmt.Errorf("vbbench: %s exists but is not JSON: %w", path, err)
		}
	}
	doc[key] = res
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
