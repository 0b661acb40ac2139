// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine drives the cycle-level models in internal/fabric and
// internal/mesh. Virtual time is measured in integer picoseconds so that
// link-level models (which care about sub-nanosecond skew) and
// cluster-level models (which care about microseconds) share one clock
// without floating-point drift.
package sim

import (
	"container/heap"
	"fmt"
	"math"
)

// Time is virtual time in picoseconds.
type Time int64

// Common time units.
const (
	Picosecond  Time = 1
	Nanosecond  Time = 1000 * Picosecond
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable virtual time.
const MaxTime Time = math.MaxInt64

// Seconds converts a virtual time to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts a virtual time to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// String renders the time with an adaptive unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", t.Seconds())
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", t.Micros())
	case t >= Nanosecond:
		return fmt.Sprintf("%.6gns", float64(t)/float64(Nanosecond))
	default:
		return fmt.Sprintf("%dps", int64(t))
	}
}

// FromSeconds converts floating-point seconds to virtual time, rounding
// to the nearest picosecond.
func FromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// Event is a scheduled callback. Events with equal times fire in the
// order of their sequence numbers (i.e. scheduling order), which makes
// the engine fully deterministic.
type Event struct {
	at   Time
	seq  uint64
	fn   func()
	dead bool
	idx  int
}

// Time reports when the event is scheduled to fire.
func (e *Event) Time() Time { return e.at }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired is a no-op.
func (e *Event) Cancel() { e.dead = true }

type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a single-threaded discrete-event simulator.
//
// The zero value is ready to use. Engine is not safe for concurrent use;
// higher layers that need concurrency (the MPI runtime) keep per-process
// clocks instead and reconcile them at synchronization points.
type Engine struct {
	now    Time
	nextID uint64
	queue  eventQueue
	fired  uint64
}

// NewEngine returns an engine with its clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now reports the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Fired reports how many events have been executed.
func (e *Engine) Fired() uint64 { return e.fired }

// At schedules fn to run at absolute time t. Scheduling in the past
// panics: that is always a model bug, and silently clamping would mask
// causality violations.
func (e *Engine) At(t Time, fn func()) *Event {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	ev := &Event{at: t, seq: e.nextID, fn: fn}
	e.nextID++
	heap.Push(&e.queue, ev)
	return ev
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d Time, fn func()) *Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", d))
	}
	return e.At(e.now+d, fn)
}

// Step fires the next event, if any, and reports whether one fired.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := heap.Pop(&e.queue).(*Event)
		if ev.dead {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run fires events until the queue is empty and returns the final time.
func (e *Engine) Run() Time {
	for e.Step() {
	}
	return e.now
}

// RunUntil fires events with time <= deadline. The clock ends at
// min(deadline, last event time). It reports whether any events remain.
func (e *Engine) RunUntil(deadline Time) bool {
	for len(e.queue) > 0 {
		// Peek.
		next := e.queue[0]
		if next.dead {
			heap.Pop(&e.queue)
			continue
		}
		if next.at > deadline {
			e.now = deadline
			return true
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return false
}

// RunFor advances the clock by d, firing due events.
func (e *Engine) RunFor(d Time) bool { return e.RunUntil(e.now + d) }
