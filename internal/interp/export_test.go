package interp

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
