// Package jobs is the serving layer over the compiler and simulated
// cluster: a long-lived service that accepts compile-and-run jobs
// (Fortran 77 source plus fabric/ranks/options), keyed by a content
// hash of (program, compile options), with
//
//   - an LRU compiled-plan cache, so a repeat submission skips the
//     Polaris-style front end and postpass entirely (the §5 pipeline is
//     the cold path; the cache hit is a map lookup),
//   - a bounded job queue with per-tenant weighted fair scheduling and
//     explicit load shedding (ErrQueueFull → HTTP 429 + Retry-After),
//   - N concurrent simulated clusters (worker goroutines) sharing the
//     host, each run on its own cluster with its own trace recorder —
//     safe because a Compiled plan is immutable at run time
//     (core.RunParallelWith; see the concurrent-reuse race test).
//
// cmd/vbserve wraps this package in an HTTP/JSON daemon; vbbench
// -sweep serve drives it in-process for the BENCH_serve.json numbers.
package jobs

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"sync"
	"time"

	"vbuscluster/internal/cliutil"
	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/trace"
)

// Spec is one compile-and-run request, the POST /v1/jobs body.
type Spec struct {
	// Source is the Fortran 77 program text.
	Source string `json:"source"`
	// Procs is the SPMD rank count (default 4, the paper's machine).
	Procs int `json:"procs,omitempty"`
	// Grain is the communication granularity: "fine" (default),
	// "middle", "coarse" or "auto" (compiler prices all three).
	Grain string `json:"grain,omitempty"`
	// Fabric is the interconnect backend name ("" = the server's
	// default, normally vbus).
	Fabric string `json:"fabric,omitempty"`
	// Mode is the execution fidelity: "timing" (default) or "full".
	Mode string `json:"mode,omitempty"`
	// Coalesce enables the pack-and-coalesce postpass stage.
	Coalesce bool `json:"coalesce,omitempty"`
	// TwoSided generates MPI-1 SEND/RECEIVE pairs instead of
	// one-sided PUT/GET.
	TwoSided bool `json:"two_sided,omitempty"`
	// PullScatter lets slaves GET their scatter regions concurrently.
	PullScatter bool `json:"pull_scatter,omitempty"`
	// LockReductions selects lock-based reduction combining.
	LockReductions bool `json:"lock_reductions,omitempty"`
	// Trace records the run's per-rank timeline, served as Chrome
	// trace-event JSON at GET /v1/jobs/{id}/trace.
	Trace bool `json:"trace,omitempty"`
	// Tenant attributes the job for fair scheduling and accounting
	// ("" = "default").
	Tenant string `json:"tenant,omitempty"`
	// Priority is the job's strict admission priority, 0 (bulk, the
	// default) through 9 (interactive). A higher band always dispatches
	// before a lower one; per-tenant stride fairness applies within a
	// band. Failover-forwarded jobs in peer mode are boosted so
	// recovery work preempts bulk traffic. Run-time only — excluded
	// from the plan cache key.
	Priority int `json:"priority,omitempty"`
	// DeadlineMs bounds the job's wall-clock lifetime from admission
	// (queueing included): past it the run is cancelled and the job
	// ends "cancelled". 0 uses the server default; the server-side cap
	// (Config.MaxDeadline) clamps it either way.
	DeadlineMs int `json:"deadline_ms,omitempty"`
	// Faults is a fault-spec string in the internal/fault grammar.
	// Cluster-level tokens (crash, flitdrop, ...) inject deterministic
	// faults into the simulated run; the server-level chaos tokens
	// (panicjob, stalljob, killworker) drive the serving layer itself.
	// Run-time only — excluded from the plan cache key.
	Faults string `json:"faults,omitempty"`
}

// maxProcs bounds a request's rank count (the scale sweep's ceiling).
const maxProcs = 1024

// MaxPriority is the highest admission priority a spec may request;
// valid priorities are [0, MaxPriority], 0 being the bulk default.
const MaxPriority = 9

// normalized fills defaults and validates the spec. It is called once
// at submission; everything downstream trusts the result.
func (s Spec) normalized(defaultFabric string) (Spec, error) {
	if strings.TrimSpace(s.Source) == "" {
		return s, fmt.Errorf("jobs: empty source")
	}
	if s.Procs == 0 {
		s.Procs = 4
	}
	if s.Procs < 1 || s.Procs > maxProcs {
		return s, fmt.Errorf("jobs: procs %d out of range [1, %d]", s.Procs, maxProcs)
	}
	if s.Grain == "" {
		s.Grain = "fine"
	}
	if s.Grain != "auto" {
		if _, err := lmad.ParseGrain(s.Grain); err != nil {
			return s, fmt.Errorf("jobs: %w (or \"auto\")", err)
		}
	}
	if s.Fabric == "" {
		s.Fabric = defaultFabric
	}
	if s.Fabric == "" {
		s.Fabric = "vbus"
	}
	if err := cliutil.ValidateFabric(s.Fabric); err != nil {
		return s, fmt.Errorf("jobs: %w", err)
	}
	switch s.Mode {
	case "":
		s.Mode = "timing"
	case "timing", "full":
	default:
		return s, fmt.Errorf("jobs: unknown mode %q (want timing or full)", s.Mode)
	}
	if s.Tenant == "" {
		s.Tenant = "default"
	}
	if len(s.Tenant) > 64 {
		return s, fmt.Errorf("jobs: tenant name longer than 64 bytes")
	}
	if s.Priority < 0 || s.Priority > MaxPriority {
		return s, fmt.Errorf("jobs: priority %d out of range [0, %d]", s.Priority, MaxPriority)
	}
	if s.DeadlineMs < 0 {
		return s, fmt.Errorf("jobs: negative deadline_ms %d", s.DeadlineMs)
	}
	if s.Faults != "" {
		fs, err := fault.ParseSpec(s.Faults)
		if err != nil {
			return s, fmt.Errorf("jobs: %w", err)
		}
		// Canonical form: equivalent spellings snapshot identically.
		s.Faults = fs.String()
	}
	return s, nil
}

// faultSpec parses the (already canonicalized) fault field; nil when
// the job injects nothing.
func (s Spec) faultSpec() *fault.Spec {
	if s.Faults == "" {
		return nil
	}
	fs, err := fault.ParseSpec(s.Faults)
	if err != nil {
		return nil // normalized() already validated; unreachable
	}
	return fs
}

// compileOptions maps the spec onto the compiler's options.
func (s Spec) compileOptions() core.Options {
	opts := core.Options{
		NumProcs:       s.Procs,
		Fabric:         s.Fabric,
		Coalesce:       s.Coalesce,
		TwoSided:       s.TwoSided,
		PullScatter:    s.PullScatter,
		LockReductions: s.LockReductions,
	}
	if s.Grain == "auto" {
		opts.AutoGrain = true
	} else {
		opts.Grain, _ = lmad.ParseGrain(s.Grain)
	}
	return opts
}

// runMode maps the spec's mode string onto the interpreter mode.
func (s Spec) runMode() core.Mode {
	if s.Mode == "full" {
		return core.Full
	}
	return core.Timing
}

// PlanKey is the compiled-plan cache key: a SHA-256 content hash over
// the program text and every compile-relevant option, in a fixed
// canonical field order. Run-time settings (mode, trace, tenant) are
// deliberately excluded — one cached plan serves timing and full runs
// of any tenant. The normalization above canonicalizes the defaulted
// fields ("" fabric → "vbus", "" grain → "fine"), so spellings that
// compile identically share one cache entry.
func PlanKey(s Spec) string {
	h := sha256.New()
	fmt.Fprintf(h, "plan/v1\nprocs=%d\ngrain=%s\nfabric=%s\ncoalesce=%t\ntwosided=%t\npullscatter=%t\nlockred=%t\nsource=%d\n",
		s.Procs, s.Grain, s.Fabric, s.Coalesce, s.TwoSided, s.PullScatter, s.LockReductions, len(s.Source))
	h.Write([]byte(s.Source))
	return hex.EncodeToString(h.Sum(nil))
}

// State is a job's lifecycle position.
type State string

// Job states. The machine is
//
//	queued → running → done
//	                 → failed      (compile/run error, recovered panic,
//	                                retries exhausted)
//	                 → cancelled   (deadline expired or DELETE'd)
//	                 → retrying    (transient fault; re-queued with
//	                                backoff, back to queued → running)
//	queued → quarantined           (plan key tripped the circuit
//	                                breaker after repeated panics)
//
// Shed and rate-limited submissions never become jobs (Submit returns
// ErrQueueFull / ErrRateLimited instead), so every Job ends in one of
// the four terminal states: done, failed, cancelled, quarantined.
const (
	StateQueued      State = "queued"
	StateRunning     State = "running"
	StateDone        State = "done"
	StateFailed      State = "failed"
	StateCancelled   State = "cancelled"
	StateRetrying    State = "retrying"
	StateQuarantined State = "quarantined"
)

// terminal reports whether a state is final (Done() closed, job
// retired).
func (st State) terminal() bool {
	switch st {
	case StateDone, StateFailed, StateCancelled, StateQuarantined:
		return true
	}
	return false
}

// Job is one admitted submission.
type Job struct {
	// ID is the server-assigned job identifier ("j-000042").
	ID string
	// Spec is the normalized request.
	Spec Spec
	// Key is the compiled-plan cache key, PlanKey(Spec).
	Key string

	// ctx bounds the job's lifetime (deadline and explicit
	// cancellation); cancel releases it and is always non-nil for
	// admitted jobs. seq is the numeric ID (deterministic retry
	// jitter); faults is the parsed Spec.Faults (nil when none).
	ctx    context.Context
	cancel context.CancelFunc
	seq    int64
	faults *fault.Spec

	mu        sync.Mutex
	state     State
	cacheHit  bool
	submitted time.Time
	started   time.Time
	finished  time.Time
	compile   time.Duration
	run       time.Duration
	virtual   float64
	grain     string
	output    string
	err       error
	rec       *trace.Recorder
	// attempts counts execution attempts (1 on the first); kills
	// counts worker kills this job has performed (killworker token).
	attempts int
	kills    int

	done chan struct{}
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Err returns the terminal error (nil while running or on success).
func (j *Job) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.err
}

// TraceRecorder returns the run's recorder once the job is done, or
// nil (trace not requested, or job not finished).
func (j *Job) TraceRecorder() *trace.Recorder {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil
	}
	return j.rec
}

// View is the externally visible snapshot of a job, the GET
// /v1/jobs/{id} body.
type View struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	// Priority is the effective admission priority (failover boosts
	// show here, not in the submitted spec).
	Priority int   `json:"priority,omitempty"`
	State    State `json:"state"`
	CacheHit bool  `json:"cache_hit"`
	// Grain is the effective granularity ("auto" resolves once the
	// plan is compiled).
	Grain  string `json:"grain,omitempty"`
	Procs  int    `json:"procs"`
	Fabric string `json:"fabric"`
	Mode   string `json:"mode"`
	// QueuedMs is time from admission to execution start.
	QueuedMs float64 `json:"queued_ms"`
	// CompileMs is the plan acquisition latency: the full pipeline on
	// a cache miss, the cache lookup on a hit.
	CompileMs float64 `json:"compile_ms"`
	// RunMs is the host wall time of the simulated run.
	RunMs float64 `json:"run_ms"`
	// TotalMs is admission to completion.
	TotalMs float64 `json:"total_ms"`
	// VirtualSeconds is the simulated execution time.
	VirtualSeconds float64 `json:"virtual_seconds"`
	Output         string  `json:"output,omitempty"`
	Error          string  `json:"error,omitempty"`
	HasTrace       bool    `json:"has_trace,omitempty"`
	// Attempts is how many execution attempts the job has made
	// (retries and post-kill requeues re-run the job).
	Attempts int `json:"attempts,omitempty"`
}

// Snapshot captures the job's current state for reporting.
func (j *Job) Snapshot() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID:       j.ID,
		Tenant:   j.Spec.Tenant,
		Priority: j.Spec.Priority,
		State:    j.state,
		CacheHit: j.cacheHit,
		Grain:    j.grain,
		Procs:    j.Spec.Procs,
		Fabric:   j.Spec.Fabric,
		Mode:     j.Spec.Mode,
		HasTrace: j.rec != nil && j.state == StateDone,
		Attempts: j.attempts,
	}
	if !j.started.IsZero() {
		v.QueuedMs = ms(j.started.Sub(j.submitted))
	}
	v.CompileMs = ms(j.compile)
	v.RunMs = ms(j.run)
	if !j.finished.IsZero() {
		v.TotalMs = ms(j.finished.Sub(j.submitted))
		v.VirtualSeconds = j.virtual
		v.Output = j.output
	}
	if j.err != nil {
		v.Error = j.err.Error()
	}
	return v
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
