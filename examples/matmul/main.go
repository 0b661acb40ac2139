// Matmul: the paper's Table 1 experiment in miniature — compile the MM
// benchmark at several sizes and node counts and print the speedup
// grid, then verify the 4-node result against the sequential run.
package main

import (
	"fmt"
	"log"
	"math"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

func main() {
	table1, _ := bench.Lookup("table1")
	rep, err := table1.Run(bench.Env{Quick: true}) // 64..256, 1/2/4 nodes
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep.Tables[0])

	// Correctness: full-mode parallel result equals sequential.
	fmt.Println("\nverifying 4-node result at 64x64 ...")
	c, err := core.Compile(bench.MMSource(64), core.Options{NumProcs: 4, Grain: lmad.Coarse})
	if err != nil {
		log.Fatal(err)
	}
	seq, err := c.RunSequential(core.Full)
	if err != nil {
		log.Fatal(err)
	}
	par, err := c.RunParallel(core.Full)
	if err != nil {
		log.Fatal(err)
	}
	var maxDiff float64
	for i, v := range seq.Mem["C"] {
		maxDiff = math.Max(maxDiff, math.Abs(v-par.Mem["C"][i]))
	}
	fmt.Printf("max |C_seq - C_par| = %g\n", maxDiff)
	if maxDiff != 0 {
		log.Fatal("parallel result differs from sequential")
	}
	fmt.Println("OK: bit-identical")
}
