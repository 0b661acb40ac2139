package jobs

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"vbuscluster/internal/core"
	"vbuscluster/internal/fault"
	"vbuscluster/internal/interp"
	"vbuscluster/internal/mpi"
	"vbuscluster/internal/trace"
)

// Config sizes the server.
type Config struct {
	// Clusters is the number of concurrent simulated clusters — worker
	// goroutines executing jobs (default 2). Each job runs one
	// goroutine per rank of its own.
	Clusters int
	// QueueDepth bounds admitted-but-not-running jobs across all
	// tenants (default 64). Beyond it, submissions shed with
	// ErrQueueFull.
	QueueDepth int
	// CacheEntries sizes the compiled-plan LRU (default 32 plans).
	CacheEntries int
	// DefaultFabric is the backend for specs that omit one ("" = vbus).
	DefaultFabric string

	// DefaultDeadline bounds jobs whose spec omits deadline_ms
	// (0 = unbounded).
	DefaultDeadline time.Duration
	// MaxDeadline caps every job's deadline, requested or defaulted
	// (0 = no cap).
	MaxDeadline time.Duration
	// MaxRetries bounds re-executions of a transiently failed job
	// (fault-injected cluster errors). Default 2; negative disables
	// retries entirely.
	MaxRetries int
	// RetryBackoff is the base retry delay, doubled per attempt with
	// deterministic jitter (default 25ms).
	RetryBackoff time.Duration
	// RetainJobs bounds the finished-job table (default 4096).
	RetainJobs int
	// RatePerSec is the default per-tenant sustained admission rate
	// (token bucket, applied before the fair queue; 0 = unlimited).
	RatePerSec float64
	// RateBurst is the token-bucket size (default 2×RatePerSec, min 1).
	RateBurst int
	// TenantRates overrides RatePerSec per tenant (0 = that tenant is
	// unlimited).
	TenantRates map[string]float64
}

func (c Config) withDefaults() Config {
	if c.Clusters == 0 {
		c.Clusters = 2
	}
	if c.Clusters < 1 {
		c.Clusters = 1
	}
	if c.QueueDepth == 0 {
		c.QueueDepth = 64
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 32
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 2
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = 0
	}
	if c.RetryBackoff == 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.RetainJobs == 0 {
		c.RetainJobs = 4096
	}
	if c.RetainJobs < 1 {
		c.RetainJobs = 1
	}
	return c
}

// Server is the long-lived compile-and-run service. New starts its
// workers immediately; Drain retires it.
type Server struct {
	cfg     Config
	cache   *PlanCache
	queue   *Queue
	breaker *breaker
	limiter *rateLimiter
	start   time.Time
	// run executes one attempt of a job on its compiled plan:
	// cc.RunParallelWith, which tests in this package replace before
	// the workers start to make a run panic or hang.
	run func(j *Job, cc *core.Compiled, rp core.RunParams) (*interp.Result, error)

	mu     sync.Mutex
	jobs   map[string]*Job
	nextID int64
	// retired is the FIFO of finished job IDs; beyond cfg.RetainJobs
	// the oldest records (and their trace recorders) are dropped so a
	// long-lived server's job table stays bounded.
	retired []string

	// flights deduplicates concurrent cold compiles of one plan key:
	// the first submission compiles, contemporaries wait and share.
	flightMu sync.Mutex
	flights  map[string]*flight

	draining  atomic.Bool
	workersWG sync.WaitGroup
	// retryWG tracks jobs parked in retry-backoff timers: every Add
	// happens inside a worker (before workersWG drains), so Drain can
	// safely wait on it after the workers exit.
	retryWG sync.WaitGroup

	submitted       atomic.Int64
	completed       atomic.Int64
	failed          atomic.Int64
	shed            atomic.Int64
	cancelled       atomic.Int64
	quarantined     atomic.Int64
	retries         atomic.Int64
	panicsRecovered atomic.Int64
	breakerTrips    atomic.Int64
	rateLimited     atomic.Int64
	workersReplaced atomic.Int64
	retrySalt       atomic.Uint64

	compileCold sampler
	compileHit  sampler
	runLat      sampler
	totalLat    sampler
}

type flight struct {
	done chan struct{}
	cc   *core.Compiled
	wall time.Duration
	err  error
}

// New builds and starts a server: Config.Clusters workers begin
// waiting on the queue immediately.
func New(cfg Config) *Server {
	s := newServer(cfg)
	s.startWorkers(s.cfg.Clusters)
	return s
}

// newServer builds the server without starting workers (tests admit
// jobs deterministically before dispatch begins).
func newServer(cfg Config) *Server {
	cfg = cfg.withDefaults()
	return &Server{
		cfg:     cfg,
		cache:   NewPlanCache(cfg.CacheEntries),
		queue:   NewQueue(cfg.QueueDepth),
		breaker: newBreaker(),
		limiter: newRateLimiter(cfg.RatePerSec, cfg.RateBurst, cfg.TenantRates),
		start:   time.Now(),
		run: func(j *Job, cc *core.Compiled, rp core.RunParams) (*interp.Result, error) {
			return cc.RunParallelWith(j.Spec.runMode(), rp)
		},
		jobs:    map[string]*Job{},
		flights: map[string]*flight{},
	}
}

func (s *Server) startWorkers(n int) {
	for i := 0; i < n; i++ {
		s.workersWG.Add(1)
		go func() {
			defer s.workersWG.Done()
			s.worker()
		}()
	}
}

// Submit validates, admits and enqueues a job. ErrQueueFull and
// ErrRateLimited mean the caller should retry later (HTTP 429);
// ErrDraining means the server is shutting down (HTTP 503). Any other
// error is a rejected spec (HTTP 400).
func (s *Server) Submit(spec Spec) (*Job, error) {
	if s.draining.Load() {
		return nil, ErrDraining
	}
	spec, err := spec.normalized(s.cfg.DefaultFabric)
	if err != nil {
		return nil, err
	}
	// Admission control before the fair queue: a tenant over its token
	// budget never occupies a queue slot.
	if !s.limiter.allow(spec.Tenant) {
		s.rateLimited.Add(1)
		s.queue.noteRateLimited(spec.Tenant)
		return nil, ErrRateLimited
	}
	deadline := time.Duration(spec.DeadlineMs) * time.Millisecond
	if deadline == 0 {
		deadline = s.cfg.DefaultDeadline
	}
	if s.cfg.MaxDeadline > 0 && (deadline == 0 || deadline > s.cfg.MaxDeadline) {
		deadline = s.cfg.MaxDeadline
	}
	var ctx context.Context
	var cancel context.CancelFunc
	if deadline > 0 {
		// The clock starts at admission: queueing counts against the
		// deadline, so a job stuck behind a storm is cancelled rather
		// than executed arbitrarily late.
		ctx, cancel = context.WithTimeout(context.Background(), deadline)
	} else {
		ctx, cancel = context.WithCancel(context.Background())
	}
	j := &Job{
		Spec:      spec,
		Key:       PlanKey(spec),
		ctx:       ctx,
		cancel:    cancel,
		faults:    spec.faultSpec(),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	s.mu.Lock()
	s.nextID++
	j.seq = s.nextID
	j.ID = fmt.Sprintf("j-%06d", s.nextID)
	s.jobs[j.ID] = j
	s.mu.Unlock()
	if err := s.queue.Enqueue(j); err != nil {
		cancel()
		s.mu.Lock()
		delete(s.jobs, j.ID)
		s.mu.Unlock()
		if err == ErrQueueFull {
			s.shed.Add(1)
		}
		return nil, err
	}
	s.submitted.Add(1)
	return j, nil
}

// NormalizeSpec applies the server's defaults and validation to a
// spec without admitting it. The peer layer uses it to compute the
// canonical plan key (PlanKey requires the defaulted fields) before
// deciding which federation member owns the job.
func (s *Server) NormalizeSpec(spec Spec) (Spec, error) {
	return spec.normalized(s.cfg.DefaultFabric)
}

// Job looks up an admitted job by ID.
func (s *Server) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel aborts a job by ID. A still-queued job is removed from the
// queue and finalized "cancelled" immediately; a running job's context
// is cancelled and the run unwinds with an mpi.ErrCancelled error; a
// job awaiting retry is cancelled when its backoff timer fires.
// Cancelling an already-terminal job is a no-op. ok=false means no
// such job.
func (s *Server) Cancel(id string) (*Job, bool) {
	j, ok := s.Job(id)
	if !ok {
		return nil, false
	}
	if s.queue.Remove(j) {
		s.refundIfNeverRan(j)
		s.finalize(j, StateCancelled, errors.New("jobs: cancelled by request"))
		return j, true
	}
	j.cancel()
	return j, true
}

// worker is one simulated cluster: it executes queued jobs until the
// queue closes and drains. A job that kills its worker (the unwound
// stack of a recovered panic) makes process return true: the worker
// replaces itself with a fresh goroutine and exits, so the serving
// capacity stays Config.Clusters.
func (s *Server) worker() {
	for {
		j, ok := s.queue.Pop()
		if !ok {
			return
		}
		if s.process(j) {
			s.startWorkers(1)
			return
		}
	}
}

// process runs one job end to end: admission-time checks (expired
// deadline, quarantined plan key), plan acquisition (cache hit, or
// cold compile deduplicated per key), then an isolated, panic-guarded
// run with the job's own recorder and context. The return value tells
// the worker to replace itself; the replacement is counted here,
// before the job is finalised, so no client sees the job settle with
// the kill uncounted.
func (s *Server) process(j *Job) (killWorker bool) {
	// A deadline or cancellation that expired while the job sat queued.
	if j.ctx.Err() != nil {
		s.refundIfNeverRan(j)
		s.finalize(j, StateCancelled, fmt.Errorf("jobs: cancelled before start: %w", j.ctx.Err()))
		return false
	}
	// Quarantined plan keys fail fast instead of re-crashing a worker.
	if s.breaker.isTripped(j.Key) {
		s.finalize(j, StateQuarantined,
			errors.New("jobs: plan key quarantined after repeated panics (circuit breaker open)"))
		return false
	}

	j.mu.Lock()
	j.state = StateRunning
	if j.started.IsZero() {
		j.started = time.Now()
	}
	j.attempts++
	attempt := j.attempts
	j.mu.Unlock()

	t0 := time.Now()
	cc, hit, err := s.plan(j.Spec, j.Key)
	compileWall := time.Since(t0)
	if hit {
		s.compileHit.add(compileWall)
	} else if err == nil {
		s.compileCold.add(compileWall)
	}
	if err != nil {
		j.mu.Lock()
		j.compile = compileWall
		j.mu.Unlock()
		s.finalize(j, StateFailed, err)
		return false
	}

	var rec *trace.Recorder
	if j.Spec.Trace {
		rec = trace.New()
	}
	var inj *fault.Injector
	if j.faults != nil {
		// Per-attempt seed offset: a retry of a probabilistically
		// faulty run draws a fresh (but still deterministic) fault
		// schedule instead of replaying the exact failure.
		fs := *j.faults
		if fs.Seed != 0 {
			fs.Seed += uint64(attempt - 1)
		}
		inj = fault.New(&fs)
	}

	// The run is panic-guarded: a compiler or runtime bug marks this
	// job failed with the recovered stack instead of crashing the
	// server, and the worker replaces itself.
	var res *interp.Result
	var runErr error
	panicked := false
	r0 := time.Now()
	func() {
		defer func() {
			if r := recover(); r != nil {
				panicked = true
				runErr = fmt.Errorf("jobs: panic in job %s (attempt %d): %v\n%s",
					j.ID, attempt, r, debug.Stack())
			}
		}()
		res, runErr = s.run(j, cc, core.RunParams{
			Recorder: rec,
			Ctx:      j.ctx,
			Faults:   inj,
		})
	}()
	runWall := time.Since(r0)

	j.mu.Lock()
	j.compile = compileWall
	j.run = runWall
	j.cacheHit = hit
	j.mu.Unlock()

	if panicked {
		s.workersReplaced.Add(1)
		s.panicsRecovered.Add(1)
		if s.breaker.note(j.Key) {
			s.breakerTrips.Add(1)
		}
		s.finalize(j, StateFailed, runErr)
		return true
	}
	if runErr != nil {
		switch disposition(j, runErr) {
		case StateCancelled:
			s.finalize(j, StateCancelled, fmt.Errorf("run: %w", runErr))
		case StateRetrying:
			if attempt <= s.cfg.MaxRetries && !s.draining.Load() {
				s.scheduleRetry(j, attempt, runErr)
			} else {
				s.finalize(j, StateFailed,
					fmt.Errorf("run: %w (after %d attempts)", runErr, attempt))
			}
		default:
			s.finalize(j, StateFailed, fmt.Errorf("run: %w", runErr))
		}
		return false
	}

	s.runLat.add(runWall)
	s.breaker.reset(j.Key)
	j.mu.Lock()
	j.virtual = res.Elapsed.Seconds()
	j.grain = cc.Grain().String()
	j.output = res.Output
	j.rec = rec
	j.err = nil // clear any transient-failure cause from earlier attempts
	j.mu.Unlock()
	s.finalize(j, StateDone, nil)
	return false
}

// disposition classifies a run error: cancellation (the job's context
// fired, surfacing as mpi.ErrCancelled), transient cluster faults
// (retryable), or a permanent failure.
func disposition(j *Job, err error) State {
	var me *mpi.Error
	if errors.As(err, &me) {
		switch me.Kind {
		case mpi.ErrCancelled:
			return StateCancelled
		case mpi.ErrTimeout, mpi.ErrCrashed, mpi.ErrPeerCrashed, mpi.ErrRevoked:
			return StateRetrying
		}
	}
	if j.ctx.Err() != nil {
		return StateCancelled
	}
	return StateFailed
}

// scheduleRetry parks j in a backoff timer and re-queues it when the
// timer fires: exponential backoff with deterministic per-(job,
// attempt) jitter so a burst of transient failures doesn't retry in
// lockstep. The retry is charged to the tenant (counter now, fair
// queue stride on re-dispatch).
func (s *Server) scheduleRetry(j *Job, attempt int, cause error) {
	backoff := s.cfg.RetryBackoff << (attempt - 1)
	if half := int64(backoff / 2); half > 0 {
		h := splitmix64(uint64(j.seq)<<8 | uint64(attempt))
		backoff += time.Duration(int64(h % uint64(half)))
	}
	j.mu.Lock()
	j.state = StateRetrying
	j.err = cause // visible in snapshots while the job awaits retry
	j.mu.Unlock()
	s.retries.Add(1)
	s.queue.noteRetry(j.Spec.Tenant)
	s.retryWG.Add(1)
	time.AfterFunc(backoff, func() {
		defer s.retryWG.Done()
		if j.ctx.Err() != nil {
			s.finalize(j, StateCancelled, fmt.Errorf("jobs: cancelled awaiting retry: %w", j.ctx.Err()))
			return
		}
		if err := s.queue.Enqueue(j); err != nil {
			s.finalize(j, StateFailed, fmt.Errorf("jobs: retry abandoned: %w", err))
		}
	})
}

// refundIfNeverRan returns the job's admission token to its tenant's
// rate bucket if the job never made an execution attempt: a queued job
// cancelled before running (DELETE storm, or a deadline that expired
// in the queue) must not burn tenant budget. Jobs that ran at least
// once (retries) consumed service and keep their token spent.
func (s *Server) refundIfNeverRan(j *Job) {
	j.mu.Lock()
	never := j.attempts == 0
	j.mu.Unlock()
	if never {
		s.limiter.refund(j.Spec.Tenant)
	}
}

// finalize moves j to a terminal state exactly once: state + counters
// + tenant accounting + Done close + retirement. Late or duplicate
// finalizations (a cancel racing completion) are no-ops, so a job can
// never double-complete or leak its queue slot.
func (s *Server) finalize(j *Job, st State, err error) {
	j.mu.Lock()
	if j.state.terminal() {
		j.mu.Unlock()
		return
	}
	j.state = st
	j.finished = time.Now()
	if err != nil {
		j.err = err
	}
	total := j.finished.Sub(j.submitted)
	j.mu.Unlock()
	j.cancel() // release the deadline timer
	switch st {
	case StateDone:
		s.completed.Add(1)
		s.totalLat.add(total)
	case StateCancelled:
		s.cancelled.Add(1)
	case StateQuarantined:
		s.quarantined.Add(1)
	default:
		s.failed.Add(1)
	}
	s.queue.finish(j.Spec.Tenant, st)
	close(j.done)
	s.retire(j.ID)
}

func (s *Server) retire(id string) {
	s.mu.Lock()
	s.retired = append(s.retired, id)
	for len(s.retired) > s.cfg.RetainJobs {
		delete(s.jobs, s.retired[0])
		s.retired = s.retired[1:]
	}
	s.mu.Unlock()
}

// plan returns the compiled plan for spec, from cache when possible.
// Concurrent misses on one key coalesce onto a single compile; the
// waiters count as hits (they skipped the pipeline).
func (s *Server) plan(spec Spec, key string) (*core.Compiled, bool, error) {
	if cc, _, ok := s.cache.Get(key); ok {
		return cc, true, nil
	}
	s.flightMu.Lock()
	if f, ok := s.flights[key]; ok {
		s.flightMu.Unlock()
		<-f.done
		return f.cc, f.err == nil, f.err
	}
	f := &flight{done: make(chan struct{})}
	s.flights[key] = f
	s.flightMu.Unlock()

	t0 := time.Now()
	f.cc, f.err = core.Compile(spec.Source, spec.compileOptions())
	f.wall = time.Since(t0)
	if f.err == nil {
		s.cache.Put(key, spec, f.cc, f.wall)
	}
	s.flightMu.Lock()
	delete(s.flights, key)
	s.flightMu.Unlock()
	close(f.done)
	return f.cc, false, f.err
}

// Draining reports whether admission has stopped.
func (s *Server) Draining() bool { return s.draining.Load() }

// Drain gracefully retires the server: admission stops (Submit returns
// ErrDraining), every already-admitted job still executes — including
// jobs parked in retry-backoff timers, which resolve to failed once the
// queue refuses them — and Drain returns once the workers and timers
// settle, or with the context's error if it expires first (jobs keep
// draining in the background either way).
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	s.queue.Close()
	done := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		s.retryWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("jobs: drain interrupted with work in flight: %w", ctx.Err())
	}
}

// RetryAfterSeconds estimates when a shed or rate-limited client
// should retry: the backlog over the observed service rate, inflated
// by queue occupancy (a nearly full queue pushes clients further out)
// and spread by deterministic jitter so a burst of shed clients does
// not retry in lockstep and re-saturate admission. Clamped to [1, 30].
func (s *Server) RetryAfterSeconds() int {
	depth := s.queue.Depth()
	est := 1.0
	if rate := s.jobsPerSec(); rate > 0 {
		est = float64(depth) / rate
	}
	occupancy := float64(depth) / float64(s.cfg.QueueDepth)
	est *= 1 + occupancy
	// ±20% jitter, deterministic in the call sequence.
	est *= 0.8 + 0.4*float64(splitmix64(s.retrySalt.Add(1))%1024)/1024
	v := int(est + 0.5)
	if v < 1 {
		v = 1
	}
	if v > 30 {
		v = 30
	}
	return v
}

func (s *Server) jobsPerSec() float64 {
	up := time.Since(s.start).Seconds()
	if up <= 0 {
		return 0
	}
	return float64(s.completed.Load()) / up
}

// Metrics snapshots the server's counters and latency distributions.
func (s *Server) Metrics() Metrics {
	return Metrics{
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Submitted:       s.submitted.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Shed:            s.shed.Load(),
		Cancelled:       s.cancelled.Load(),
		Quarantined:     s.quarantined.Load(),
		Retries:         s.retries.Load(),
		PanicsRecovered: s.panicsRecovered.Load(),
		BreakerTrips:    s.breakerTrips.Load(),
		RateLimited:     s.rateLimited.Load(),
		WorkersReplaced: s.workersReplaced.Load(),
		JobsPerSec:      s.jobsPerSec(),
		QueueDepth:      s.queue.Depth(),
		QueueCap:        s.cfg.QueueDepth,
		Clusters:        s.cfg.Clusters,
		Draining:        s.draining.Load(),
		Cache:           s.cache.Stats(),
		Tenants:         s.queue.Stats(),
		CompileColdMs:   s.compileCold.quantiles(),
		CompileHitMs:    s.compileHit.quantiles(),
		RunMs:           s.runLat.quantiles(),
		TotalMs:         s.totalLat.quantiles(),
	}
}
