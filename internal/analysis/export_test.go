package analysis

import (
	"fmt"

	"vbuscluster/internal/f77"
	"vbuscluster/internal/lmad"
)

// ResolveLoop is resolveLoop with its failure as an error.
func ResolveLoop(loop *f77.DoLoop, outer []LoopCtx) (LoopCtx, error) {
	ctx, bad := resolveLoop(loop, outer)
	if bad != "" {
		return ctx, fmt.Errorf("analysis: "+bad, loop.Var.Name)
	}
	return ctx, nil
}

// At is the descriptor a loop's test derives from the access: loops[:pin]
// at their first values, the rest expanded.
func (a Access) At(loops []LoopCtx, pin int) lmad.LMAD { return a.at(loops, pin, nil) }
