// Package interp executes compiled programs on the simulated cluster.
// It is the execution half of the reproduction: the same evaluator runs
//
//   - the sequential baseline (the inlined, analyzed main unit on one
//     processor), and
//   - the SPMD translation from internal/postpass on P processors over
//     the MPI-2 runtime — master/slave, barriers and fences at region
//     boundaries, data scattering/collecting via window PUTs, exactly
//     the §3/§5 execution model.
//
// There is one evaluator. Lower turns an analysed f77.Program once into
// an immutable Lowered form: every symbol has a dense slot in a
// per-process frame, every expression is a node already specialised by
// its static type (a plain function over fields carved from the plan's
// own chunks, so the hot data of a loop body is placed the same way in
// every process), constant-layout array references carry
// pre-multiplied strides and a folded base, GOTO labels, intrinsics and
// callees are resolved, and every statement and loop carries its static
// cost as a form over cluster.CPUParams. Any number of runs, ranks and
// goroutines execute one Lowered concurrently; all mutable state lives
// in each process's Env.
//
// Virtual time: every executed statement charges the CPU cost model;
// every MPI call charges the NIC cost model. Two modes exist:
//
//   - Full: every iteration really executes and data really moves —
//     used for correctness verification against a native Go oracle;
//   - Timing: loop nests free of I/O, calls and branches are charged in
//     closed form without executing each iteration, and transfers are
//     charged without copying. Virtual time is identical to Full mode
//     by construction (same cost formulas) for programs whose control
//     flow does not depend on data, which holds for all benchmarks.
package interp

import (
	"fmt"
	"io"

	"vbuscluster/internal/analysis"
	"vbuscluster/internal/cluster"
	"vbuscluster/internal/f77"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/sim"
)

// Mode selects execution fidelity.
type Mode int

// Execution modes.
const (
	// Full executes every iteration and moves real data.
	Full Mode = iota
	// Timing charges virtual time in bulk and skips data movement.
	Timing
)

func (m Mode) String() string {
	if m == Timing {
		return "timing"
	}
	return "full"
}

// Env is one process's execution environment: the mutable half of a
// run. The program it executes is the shared, read-only Lowered.
type Env struct {
	lw *Lowered
	// mem is the process's frame: the backing cells of every symbol,
	// indexed by the symbol's slot. A nil entry has no storage (a
	// PARAMETER, an unbound dummy, a lazily deferred array).
	mem [][]float64

	cl   *cluster.Cluster
	rank int
	cpu  cluster.CPUParams
	mode Mode
	out  io.Writer

	// pending accumulates compute charges between flushes so the
	// cluster mutex is not taken per statement.
	pending sim.Time

	// spmdTax is added to every loop iteration while executing a
	// partitioned region: the generated SPMD code's extra address and
	// bound arithmetic (what drags the paper's 1-node speedup to 0.96).
	spmdTax sim.Time

	// jump is the label a ctrlJump outcome is heading for.
	jump int

	// saved is the CALL stack: each active frame's shadowed bindings of
	// the callee's slot range, restored when the call returns.
	saved [][]float64

	// regionStats collects the per-region profile on the master.
	regionStats []RegionStat

	// world, set on parallel runs, lets long compute loops observe an
	// external cancellation (World.Cancel) between iterations — MPI
	// calls already check on entry, but a partitioned loop with no
	// communication would otherwise run to completion after its job's
	// deadline expired. Nil for sequential runs.
	world *mpi.World

	// commons backs COMMON blocks: per block, per member-index storage,
	// shared by every unit executed in this env.
	commons map[string][][]float64
}

// runtimeError aborts execution through a panic recovered at the run
// boundary, carrying source context.
type runtimeError struct{ err error }

func (e *Env) fail(line int, format string, args ...any) {
	panic(runtimeError{fmt.Errorf("interp: line %d: %s", line, fmt.Sprintf(format, args...))})
}

// checkCancelled aborts execution when the run has been cancelled from
// outside (job deadline, explicit abort). The panic carries the same
// structured *mpi.Error the communication layer raises, and recoverRun
// converts it into the run's error. A single atomic load per call —
// uncancelled runs stay bit-identical (no virtual-time charge).
func (e *Env) checkCancelled() {
	if e.world != nil && e.world.Cancelled() {
		panic(&mpi.Error{Kind: mpi.ErrCancelled, Rank: e.rank, Op: "compute", Peer: -1, Time: e.cl.Clock(e.rank)})
	}
}

// newEnv allocates the environment for one rank executing the main
// unit of lw.
func newEnv(lw *Lowered, cl *cluster.Cluster, rank int, mode Mode, out io.Writer) (*Env, error) {
	env := &Env{
		lw:   lw,
		mem:  make([][]float64, len(lw.syms)),
		cl:   cl,
		rank: rank,
		cpu:  cl.Params().CPU,
		mode: mode,
		out:  out,
	}
	if err := env.allocMain(); err != nil {
		return nil, err
	}
	return env, nil
}

// linePad is one 64-byte cache line in float64 cells.
const linePad = 8

// allocMain allocates storage for every symbol of the main unit. All
// its array bounds must be compile-time constants (the front end
// inlined subroutines into the main unit; adjustable arrays remain only
// in units executed via CALL, which allocate at call time).
func (env *Env) allocMain() error {
	u := env.lw.main
	// The ranks of a run allocate their scalar blocks back to back, and
	// blocks of a few words would share cache lines. Every rank stores
	// its loop variables on each iteration, so two ranks computing on
	// different cores would keep invalidating each other's line (up to
	// three times slower, or not, by how the blocks happen to fall). A
	// line of padding either side keeps a rank's scalars on lines of
	// their own.
	scalars := make([]float64, u.scalars+2*linePad)[linePad:]
	for slot := u.lo; slot < u.hi; slot++ {
		sym := env.lw.syms[slot]
		if sym.IsConst || sym.IsArg {
			continue
		}
		if sym.Common != "" {
			buf, err := env.commonSlot(sym)
			if err != nil {
				return err
			}
			env.mem[slot] = buf
			continue
		}
		if !sym.IsArray() {
			env.mem[slot], scalars = scalars[:1:1], scalars[1:]
			continue
		}
		// Adjustable or assumed-size arrays have no constant layout: in
		// the main unit they are an error caught on first access.
		// Timing mode leaves every array to first touch (storage):
		// bulk-charged loops and charge-only transfers never read one,
		// so a timing run allocates — and zero-fills — only what its
		// sequential sections and executed loops really use, on the
		// master as on the slaves.
		if lay := env.lw.layouts[slot]; lay != nil && lay.Size > 0 && env.mode != Timing {
			env.mem[slot] = make([]float64, lay.Size)
		}
	}
	return nil
}

// commonSlot returns (allocating on first sight) the shared storage of
// a COMMON member, enforcing identical element counts across units.
func (env *Env) commonSlot(sym *f77.Symbol) ([]float64, error) {
	size := int64(1)
	if sym.IsArray() {
		lay, err := analysis.LayoutOf(sym)
		if err != nil || lay.Size == 0 {
			return nil, fmt.Errorf("interp: COMMON member %s needs constant bounds", sym.Name)
		}
		size = lay.Size
	}
	if env.commons == nil {
		env.commons = map[string][][]float64{}
	}
	members := env.commons[sym.Common]
	for int64(len(members)) <= int64(sym.CommonIndex) {
		members = append(members, nil)
	}
	if members[sym.CommonIndex] == nil {
		members[sym.CommonIndex] = make([]float64, size)
	} else if int64(len(members[sym.CommonIndex])) != size {
		return nil, fmt.Errorf("interp: COMMON /%s/ member %d: %s wants %d elements, block has %d",
			sym.Common, sym.CommonIndex, sym.Name, size, len(members[sym.CommonIndex]))
	}
	env.commons[sym.Common] = members
	return members[sym.CommonIndex], nil
}

// applyData runs a unit's DATA statements into this env.
func (env *Env) applyData(u *unit) {
	for _, di := range u.src.DataInits {
		copy(env.storage(env.lw.slots[di.Sym], 0), di.Vals)
	}
}

// storage returns the backing cells of a slot, allocating on first
// touch what was deferred: scalars, and the constant-layout arrays a
// Timing-mode env skipped (zero-filled, exactly as the eager path would
// have left them). Lowered code reads env.mem directly and comes here
// only when it finds nil.
func (env *Env) storage(slot, line int) []float64 {
	if buf := env.mem[slot]; buf != nil {
		return buf
	}
	sym := env.lw.syms[slot]
	if sym.IsConst {
		env.fail(line, "storage of PARAMETER %s", sym.Name)
	}
	if !sym.IsArray() {
		env.mem[slot] = make([]float64, 1)
	} else if lay := env.lw.layouts[slot]; lay != nil && lay.Size > 0 {
		env.mem[slot] = make([]float64, lay.Size)
	} else {
		env.fail(line, "array %s has no storage (unbound dummy or non-constant bounds)", sym.Name)
	}
	return env.mem[slot]
}

// symStorage is storage for callers that hold a symbol (the SPMD
// runtime's windows, reductions and transfers).
func (env *Env) symStorage(sym *f77.Symbol) []float64 {
	return env.storage(env.lw.slots[sym], 0)
}

// winBacking returns the backing slice a window over sym should
// expose, without forcing a deferred array into existence: a Timing
// run creates windows for charge accounting only and never moves real
// data through them, so a nil region is fine (the mpi layer reports a
// real access to one as ErrNoRegion).
func (env *Env) winBacking(sym *f77.Symbol) []float64 {
	slot := env.lw.slots[sym]
	if env.mode == Timing && env.mem[slot] == nil {
		return nil
	}
	return env.storage(slot, 0)
}

// flush publishes accumulated compute time to the cluster clock. Must
// run before any MPI call and at run end.
func (env *Env) flush() {
	if env.pending > 0 {
		env.cl.ChargeCompute(env.rank, env.pending)
		env.pending = 0
	}
}

// setInt stores an integer value into a scalar slot.
func (env *Env) setInt(slot int, v int64) { env.mem[slot][0] = float64(v) }
