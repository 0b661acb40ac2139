// Package trace is the cluster-wide observability subsystem: a
// structured, per-rank timeline of every runtime event in virtual
// time. The MPI layer records one Event per operation — begin/end
// clock values, peer rank, payload bytes and the transport class the
// bytes travelled (DMA-contig, PIO-strided, V-Bus broadcast, wormhole
// p2p) — and this package derives everything the paper's evaluation
// tables leave implicit: per-rank counters (op counts, bytes by
// transport, compute vs transfer vs wait time), the N×N communication
// matrix, a text profile report, and Chrome trace-event JSON that
// loads in Perfetto with one track per rank.
//
// A nil *Recorder is valid and records nothing, so tracing is
// zero-cost when off: the runtime guards every event with a single
// nil check and never reads the virtual clock for tracing purposes
// unless a recorder is attached.
//
// Events are recorded concurrently by the per-rank goroutines;
// every accessor sorts them into a stable order (rank, begin, end,
// op, peer) so exports and reports are deterministic regardless of
// goroutine interleaving.
package trace

import (
	"sort"
	"sync"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
)

// CompilerRank is the pseudo-rank carrying compiler pass spans in an
// exported timeline (the "rank -1" track).
const CompilerRank = -1

// Operation names recorded by the MPI runtime. Ops are plain strings
// so auxiliary tracks (compiler passes) can use their own names.
const (
	OpSend      = "send"
	OpRecv      = "recv"
	OpUnpack    = "unpack"
	OpPut       = "put"
	OpPutStride = "put.s"
	OpGet       = "get"
	OpGetStride = "get.s"
	// OpPutPacked / OpGetPacked are strided one-sided transfers the
	// coalescer rewrote into pack → contiguous DMA burst → unpack; they
	// travel the dedicated pack transport class so profiles separate
	// coalesced bursts from the per-element PIO path they replace.
	OpPutPacked  = "put.p"
	OpGetPacked  = "get.p"
	OpAccumulate = "accumulate"
	OpBarrier    = "barrier"
	OpFence      = "fence"
	OpLock       = "lock"
	OpUnlock     = "unlock"
	OpBcast      = "bcast"
	OpReduce     = "reduce"
	OpAllreduce  = "allreduce"
	// OpRetry is the reliability layer's retransmission overhead: the
	// extra time a faulty fabric costs on top of the operation that
	// triggered the retries (recorded as a separate adjacent interval so
	// the base operation's accounting stays identical to a clean run).
	OpRetry = "retry"
	// OpCheckpoint is a coordinated checkpoint epoch boundary: the
	// quiesce rendezvous plus the snapshot serialization, priced through
	// the active interconnect and charged to the ckpt transport.
	OpCheckpoint = "checkpoint"
	// OpRecovery is the crash-recovery interval on each survivor: the
	// failed-set agreement, communicator shrink and checkpoint restore.
	OpRecovery = "recovery"
)

// Event is one recorded interval on a rank's virtual timeline.
type Event struct {
	// Rank is the recording rank (CompilerRank for aux tracks).
	Rank int
	// Op names the operation ("send", "put", "barrier", ...).
	Op string
	// Peer is the other rank involved: the destination of a send/put,
	// the source of a recv, the target of a get/lock, the root of a
	// rooted collective. -1 when the op has no single peer.
	Peer int
	// Bytes is the byte count the operation charged through the
	// interconnect accounting (cluster.ChargeComm), so per-rank sums
	// over events reconcile exactly with cluster.Report.CommBytes.
	// Synchronizing ops and collectives account zero bytes.
	Bytes int64
	// Payload is the logical payload size of the operation in bytes —
	// equal to Bytes for point-to-point data movement, and the vector
	// size for collectives (whose cluster accounting books no bytes).
	Payload int64
	// Transport classifies the data path (see interconnect.Transport).
	Transport interconnect.Transport
	// Begin and End bound the interval on the rank's virtual clock.
	// End >= Begin always; intervals of one rank never overlap.
	Begin, End sim.Time
	// Detail is an optional free-form note (pass notes on the
	// compiler track).
	Detail string
}

// Duration is the interval length.
func (e Event) Duration() sim.Time { return e.End - e.Begin }

// Recorder collects events from concurrently running ranks. Storage
// is sharded per rank: each rank's goroutine appends to its own shard
// under a shard-local lock, so a 1024-rank run never serializes its
// event stream through one global mutex. Shards are merged in rank
// order on export, then canonically sorted, so the sharding is
// invisible to every consumer. All methods are safe for concurrent
// use, and safe on a nil receiver (where they record and return
// nothing).
type Recorder struct {
	mu     sync.RWMutex // guards the shard map, not the events
	shards map[int]*traceShard
}

// traceShard is one rank's private event stream.
type traceShard struct {
	mu     sync.Mutex
	events []Event
}

// New returns an empty recorder.
func New() *Recorder { return &Recorder{shards: map[int]*traceShard{}} }

// shard returns rank's shard, creating it on first use. The read lock
// covers the common case; creation upgrades with a double-check.
func (r *Recorder) shard(rank int) *traceShard {
	r.mu.RLock()
	s := r.shards[rank]
	r.mu.RUnlock()
	if s != nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.shards == nil {
		r.shards = map[int]*traceShard{}
	}
	if s = r.shards[rank]; s == nil {
		s = &traceShard{}
		r.shards[rank] = s
	}
	return s
}

// Add records one event. No-op on a nil recorder.
func (r *Recorder) Add(ev Event) {
	if r == nil {
		return
	}
	s := r.shard(ev.Rank)
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Len reports the number of recorded events (0 on a nil recorder).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, s := range r.shards {
		s.mu.Lock()
		n += len(s.events)
		s.mu.Unlock()
	}
	return n
}

// Events returns a copy of the recorded events in the canonical
// stable order: by rank, then begin time, then end time, then op,
// then peer. Shards are concatenated in ascending rank order before
// the stable sort, so the merge is deterministic regardless of both
// goroutine interleaving and shard layout.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	ranks := make([]int, 0, len(r.shards))
	byRank := make(map[int]*traceShard, len(r.shards))
	for rank, s := range r.shards {
		ranks = append(ranks, rank)
		byRank[rank] = s
	}
	r.mu.RUnlock()
	sort.Ints(ranks)
	var evs []Event
	for _, rank := range ranks {
		s := byRank[rank]
		s.mu.Lock()
		evs = append(evs, s.events...)
		s.mu.Unlock()
	}
	sort.SliceStable(evs, func(i, j int) bool {
		a, b := evs[i], evs[j]
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Begin != b.Begin {
			return a.Begin < b.Begin
		}
		if a.End != b.End {
			return a.End < b.End
		}
		if a.Op != b.Op {
			return a.Op < b.Op
		}
		return a.Peer < b.Peer
	})
	return evs
}
