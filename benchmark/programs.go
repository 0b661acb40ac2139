package main

import (
	"embed"
	"fmt"
	"strings"
	"text/template"

	"vbuscluster/internal/core"
	"vbuscluster/internal/lmad"
)

// The benchmark carries its own copies of the paper's three kernels so
// that it keeps building when internal/bench is rewritten.
//
//go:embed programs/*.f.tmpl
var programFS embed.FS

var programTmpl = template.Must(template.ParseFS(programFS, "programs/*.f.tmpl"))

// kernel names one of the three templates; its size parameter is the
// matrix edge (mm), the grid edge (swim) or log2 of the table size (cfft).
type kernel string

const (
	mm   kernel = "mm"
	swim kernel = "swim"
	cfft kernel = "cfft"
)

func (k kernel) source(size int) string {
	var sb strings.Builder
	if err := programTmpl.ExecuteTemplate(&sb, string(k)+".f.tmpl", map[string]int{"N": size}); err != nil {
		panic(err) // the templates are embedded and take one integer
	}
	return sb.String()
}

// plan is one (program, compile options) pair the benchmark compiles
// or runs. label names it in goldens and trace files.
type plan struct {
	label string
	src   string
	opts  core.Options
}

func planLabel(k kernel, size, procs int, grain string) string {
	return fmt.Sprintf("%s%d/p%d/%s", k, size, procs, grain)
}

func newPlan(k kernel, size, procs int, grain string) plan {
	p := plan{
		label: planLabel(k, size, procs, grain),
		src:   k.source(size),
		opts:  core.Options{NumProcs: procs},
	}
	if grain == "auto" {
		p.opts.AutoGrain = true
	} else {
		g, err := lmad.ParseGrain(grain)
		if err != nil {
			panic(err) // grain names are constants of this package
		}
		p.opts.Grain = g
	}
	return p
}

// mix64 is splitmix64 over (seed, k): every seeded choice is a pure
// function of the seed and the op index, so two clients that draw
// indices in a different interleaving still generate the same inputs.
func mix64(seed uint64, k int) uint64 {
	z := seed + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// shuffled returns the seeded permutation of 0..n-1 for one round.
func shuffled(seed uint64, round, n int) []int {
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := int(mix64(seed, round*n+i) % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// missRanges are the kernels and size ranges serve_miss draws from,
// all at the service's default 4 ranks and fine grain.
var missRanges = []struct {
	k      kernel
	lo, hi int
}{{mm, 24, 56}, {swim, 32, 64}, {cfft, 6, 9}}

// missBodies is every program body serve_miss can draw.
func missBodies() []plan {
	var ps []plan
	for _, r := range missRanges {
		for size := r.lo; size <= r.hi; size++ {
			ps = append(ps, newPlan(r.k, size, 4, "fine"))
		}
	}
	return ps
}

// missJob draws job k of serve_miss: a kernel, a size within its
// range, and a leading comment line that makes the plan key unique.
// It returns the label of the body and the line to put before it.
func missJob(seed uint64, tag string, k int) (label, comment string) {
	r := mix64(seed, k)
	rg := missRanges[r%3]
	size := rg.lo + int((r>>8)%uint64(rg.hi-rg.lo+1))
	return planLabel(rg.k, size, 4, "fine"), fmt.Sprintf("C %s %d\n", tag, k)
}
