// Granularity: the paper's Figure 9 worked example — one access region
// with a stride-3 innermost dimension, planned at the three
// communication granularities, showing the exact transfers each grain
// generates and their cost under the V-Bus card model.
package main

import (
	"fmt"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/commcost"
	"vbuscluster/internal/lmad"
)

func main() {
	// Figure 9's region: stride-3 accesses, 4 per row, rows 24 apart.
	l := lmad.New("A", 0).WithDim(24, 24).WithDim(3, 9)
	fmt.Printf("access region:\n%s", l.Diagram(36))
	fmt.Printf("exact elements: %v\n\n", l.Enumerate(100))

	kernel := cluster.DefaultParams().CommCost()

	for _, g := range []lmad.Grain{lmad.Fine, lmad.Middle, lmad.Coarse} {
		plan := lmad.Plan(l, 0, g)
		st := lmad.Stats(l, plan)
		fmt.Printf("%v grain: %d message(s), %d strided, %d elements on the wire (%d exact)\n",
			g, st.Messages, st.StridedMsgs, st.Elements, st.ExactElements)
		var total float64
		for _, tr := range plan {
			cost, _ := kernel.Price(commcost.FromTransfer("A", tr), 2, nil)
			t := cost.Seconds()
			fmt.Printf("  PUT offset=%-4d elems=%-4d stride=%-2d  cost %.2fus\n",
				tr.Offset, tr.Elems, tr.Stride, t*1e6)
			total += t
		}
		fmt.Printf("  total %.2fus\n", total*1e6)
		fmt.Printf("  wire image (■ exact, ▒ redundant):\n  %s\n", lmad.DiagramTransfers(l, plan, 36))
	}
}
