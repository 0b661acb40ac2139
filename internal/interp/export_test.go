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
	mainLoops(lw, func(l *loop) {
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
	})
	return out
}

// mainLoops calls visit on every loop of lw's main unit, outer before
// inner, in source order.
func mainLoops(lw *Lowered, visit func(*loop)) {
	var walk func(l *loop)
	walk = func(l *loop) {
		visit(l)
		for _, in := range l.inner {
			walk(in)
		}
	}
	for _, s := range lw.main.body.run {
		if s.l != nil {
			walk(s.l)
		}
	}
}

// Form is one of the three executable forms of a straight DO loop.
type Form int

const (
	NodeBody Form = iota // the ordinary node body
	OneLane              // the tape, one iteration at a time
	Strips               // the tape, a strip of lanes per instruction
)

// ForceForm makes the straight loop of lw's main unit whose DO is at
// line run in form f from now on, building its tape for OneLane and
// Strips. Strips are the tape's own choice at each entry (they need the
// entry's disjointness proof); ForceForm refuses them, returning false,
// when the tape has no strip, and refuses any form for a line with no
// straight loop.
func ForceForm(lw *Lowered, line int, f Form) bool {
	var found *loop
	mainLoops(lw, func(l *loop) {
		if l.line == line && l.straight {
			found = l
		}
	})
	if found == nil {
		return false
	}
	switch f {
	case NodeBody:
		found.straight = false
	case OneLane:
		found.code().lanes = 1
	case Strips:
		return found.code().lanes > 1
	}
	return true
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
