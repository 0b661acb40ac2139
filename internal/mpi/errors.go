package mpi

import (
	"fmt"

	"vbuscluster/internal/sim"
)

// ErrorKind classifies a structured MPI runtime error.
type ErrorKind int

const (
	// ErrTimeout means the operation could not complete within the
	// fault spec's per-operation deadline.
	ErrTimeout ErrorKind = iota
	// ErrCrashed means the calling rank itself has crashed (its virtual
	// clock passed the injected crash time).
	ErrCrashed
	// ErrPeerCrashed means a rank this operation depends on has crashed
	// or departed, so the operation can never complete.
	ErrPeerCrashed
	// ErrRevoked means the communicator was revoked (ULFM
	// MPI_Comm_revoke) after a failure elsewhere: the operation was
	// interrupted so the rank can join the recovery protocol.
	ErrRevoked
	// ErrCancelled means the run itself was cancelled from outside the
	// simulation (a job deadline or an explicit abort — World.Cancel):
	// the operation was abandoned so the rank goroutine can unwind
	// instead of leaking a running cluster.
	ErrCancelled
	// ErrNoRegion means a one-sided access moved real data through a
	// window on which the target rank exposes no memory — a window
	// created over a lazily deferred array that was never allocated.
	// Charge-only accesses need no region and never fail this way.
	ErrNoRegion
)

// String names the kind.
func (k ErrorKind) String() string {
	switch k {
	case ErrTimeout:
		return "timeout"
	case ErrCrashed:
		return "crashed"
	case ErrPeerCrashed:
		return "peer-crashed"
	case ErrRevoked:
		return "revoked"
	case ErrCancelled:
		return "cancelled"
	case ErrNoRegion:
		return "no-region"
	default:
		return "invalid"
	}
}

// Error is the structured failure of one MPI operation under fault
// injection: which rank failed, doing what, against whom, and when in
// virtual time. Operations that cannot complete return an *Error
// (callers that treat it as fatal wrap the call in Must) instead of
// deadlocking the goroutine-per-rank runtime.
type Error struct {
	Kind ErrorKind
	// Rank is the rank the operation failed on.
	Rank int
	// Op is the operation's trace name ("send", "barrier", ...).
	Op string
	// Peer is the remote rank involved (-1 when the operation has no
	// single peer, e.g. a collective).
	Peer int
	// Win names the window of an ErrNoRegion failure ("" otherwise).
	Win string
	// Time is the virtual time of the failure: the deadline expiry for
	// timeouts, the injected crash time for crashes.
	Time sim.Time
}

// Error implements error.
func (e *Error) Error() string {
	if e.Win != "" {
		return fmt.Sprintf("mpi: rank %d %s window %q (peer %d) %s at %v", e.Rank, e.Op, e.Win, e.Peer, e.Kind, e.Time)
	}
	if e.Peer >= 0 {
		return fmt.Sprintf("mpi: rank %d %s (peer %d) %s at %v", e.Rank, e.Op, e.Peer, e.Kind, e.Time)
	}
	return fmt.Sprintf("mpi: rank %d %s %s at %v", e.Rank, e.Op, e.Kind, e.Time)
}
