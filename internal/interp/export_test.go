package interp

import "vbuscluster/internal/cluster"

// LoopForm is what a DO loop has built of its executable forms.
type LoopForm struct {
	Line int
	// Tape and Body report whether its tape and its node body were
	// built.
	Tape, Body bool
	// Lanes and Folds are the built tape's strip width (1 when it runs
	// one iteration at a time) and its strip's fold instructions.
	Lanes, Folds int
}

// InnermostForms lists the forms of the main unit's innermost loops in
// source order, without building any.
func InnermostForms(lw *Lowered) []LoopForm {
	var out []LoopForm
	var walk func(l *loop)
	walk = func(l *loop) {
		if len(l.inner) == 0 {
			f := LoopForm{Line: l.line, Tape: l.tape != nil, Body: l.body != nil}
			if f.Tape {
				f.Lanes = l.tape.lanes
				for _, in := range l.tape.strip {
					if in.op >= opFoldAdd {
						f.Folds++
					}
				}
			}
			out = append(out, f)
		}
		for _, in := range l.inner {
			walk(in)
		}
	}
	for _, s := range lw.main.body.run {
		if s.l != nil {
			walk(s.l)
		}
	}
	return out
}

// FrameSize is the length of lw's Full-mode array blocks.
func FrameSize(lw *Lowered) int { return int(lw.frameSize) }

// RecycleFrame puts block into lw's pool of slave array blocks, as a
// successful run does with its slaves'.
func RecycleFrame(lw *Lowered, block *[]float64) { lw.frames.Put(block) }

// TakeFrame takes a block from lw's pool of slave array blocks, or
// returns nil if the pool hands back none.
func TakeFrame(lw *Lowered) *[]float64 {
	f, _ := lw.frames.Get().(*[]float64)
	return f
}

// SlaveArrays builds rank 1's Full-mode Env over lw on cl the way a
// parallel run does, its arrays carved from Lowered.frame, and returns
// its main unit's storage by name.
func SlaveArrays(lw *Lowered, cl *cluster.Cluster) (map[string][]float64, error) {
	env, err := newEnv(lw, cl, 1, 1, Full, nil, *lw.frame(true))
	if err != nil {
		return nil, err
	}
	return finalMem(env), nil
}
