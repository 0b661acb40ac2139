package mpi

import (
	"fmt"
	"sync"
	"time"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/trace"
)

// Win is an MPI-2 memory window (MPI_WIN): each rank exposes a region
// of its private memory that remote ranks may access with Put/Get
// without the owner's involvement. Windows are created collectively,
// identified by name (the compiler uses the array name).
type Win struct {
	world *World
	name  string

	mu   sync.Mutex // guards lockCh
	bufs [][]float64

	applyMu []sync.Mutex // per-target apply serialization
	// lockCh holds the MPI_Win_lock exclusive locks as one-slot
	// channels: a send acquires, a receive releases. Channels (rather
	// than mutexes) let a deadline-carrying Lock time out in a select
	// instead of blocking forever on a dead lock holder. Most windows
	// are never locked, so the table and each target's channel are made
	// by the first Lock that needs them (lockOf).
	lockCh []chan struct{}
}

// lockOf returns the lock channel of target's region.
func (win *Win) lockOf(target int) chan struct{} {
	win.mu.Lock()
	defer win.mu.Unlock()
	if win.lockCh == nil {
		win.lockCh = make([]chan struct{}, len(win.bufs))
	}
	if win.lockCh[target] == nil {
		win.lockCh[target] = make(chan struct{}, 1)
	}
	return win.lockCh[target]
}

// Win returns the window named name, creating it on first use. The
// world keeps one window per name; creating it is not collective (see
// WinCreate for the collective form).
func (w *World) Win(name string) *Win {
	w.mu.Lock()
	defer w.mu.Unlock()
	win, ok := w.wins[name]
	if !ok {
		win = &Win{
			world:   w,
			name:    name,
			bufs:    make([][]float64, w.n),
			applyMu: make([]sync.Mutex, w.n),
		}
		w.wins[name] = win
	}
	return win
}

// Expose makes local rank's region of the window. Each rank writes
// only its own entry, without a lock: the barrier that completes
// window creation orders every Expose before any access through the
// window.
func (win *Win) Expose(rank int, local []float64) { win.bufs[rank] = local }

// WinCreate collectively creates (or attaches to) the window named
// name, exposing local as this rank's region (MPI_WIN_CREATE). Every
// rank must call it; it synchronizes like a barrier. A rank creating
// several windows may instead Expose each and end with one Barriers.
func (p *Proc) WinCreate(name string, local []float64) *Win {
	win := p.w.Win(name)
	win.Expose(p.rank, local)
	Must(p.Barrier())
	return win
}

// WinFree collectively destroys the window (MPI_WIN_FREE).
func (p *Proc) WinFree(win *Win) {
	Must(p.Barrier())
	if p.rank == 0 {
		w := p.w
		w.mu.Lock()
		delete(w.wins, win.name)
		w.mu.Unlock()
	}
	Must(p.Barrier())
}

// Local returns the calling rank's exposed region.
func (win *Win) Local(rank int) []float64 { return win.bufs[rank] }

// target returns rank's exposed region; nil when the rank exposes none.
func (win *Win) target(rank int) []float64 {
	if rank < 0 || rank >= len(win.bufs) {
		panic(fmt.Sprintf("mpi: window %q target rank %d out of range", win.name, rank))
	}
	return win.bufs[rank]
}

// Fence completes all outstanding one-sided operations on the window
// and synchronizes all ranks (MPI_WIN_FENCE). Because transfer time is
// charged to the origin, synchronizing every clock to the global
// maximum guarantees all PUTs issued before the fence have landed in
// virtual time as well as in memory.
// Under fault injection it fails like Barrier.
func (p *Proc) Fence(win *Win) error {
	if err := p.barriers(trace.OpFence, 1); err != nil {
		return err
	}
	return nil
}

// Lock acquires an exclusive lock on target's region of the window
// (MPI_WIN_LOCK). Used for passive-target critical sections such as
// reductions into shared variables. Under fault injection a crashed
// caller fails with ErrCrashed, and with a deadline set, an acquisition
// stuck past the wall-clock watchdog (the holder crashed inside its
// critical section) fails with ErrTimeout.
func (p *Proc) Lock(win *Win, target int) error {
	if err := p.enter(trace.OpLock, target); err != nil {
		return err
	}
	entry := p.entryClock()
	rec, begin := p.traceBegin()
	// With a deadline set the wall-clock watchdog bounds the wait; a nil
	// channel never fires.
	var watchdog <-chan time.Time
	d := p.w.inj.Deadline()
	if d > 0 {
		watchdog = time.After(WatchdogWall)
	}
	select {
	case win.lockOf(target) <- struct{}{}:
	case <-p.w.cancelCh:
		return p.cancelErr(trace.OpLock, target)
	case <-watchdog:
		return &Error{Kind: ErrTimeout, Rank: p.rank, Op: trace.OpLock, Peer: target, Time: entry + d}
	}
	p.w.cl.ChargeComm(p.node(), p.w.cl.CommCost().Msg(WordBytes, p.hops(target)), 0)
	p.traceEnd(rec, begin, trace.OpLock, target, 0, 0, interconnect.TransportSync)
	return nil
}

// Unlock releases the exclusive lock (MPI_WIN_UNLOCK).
func (p *Proc) Unlock(win *Win, target int) {
	rec, begin := p.traceBegin()
	p.w.cl.ChargeComm(p.node(), p.w.cl.CommCost().Msg(WordBytes, p.hops(target)), 0)
	<-win.lockOf(target)
	p.traceEnd(rec, begin, trace.OpUnlock, target, 0, 0, interconnect.TransportSync)
}
