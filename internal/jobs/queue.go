package jobs

import (
	"errors"
	"sync"
)

// ErrQueueFull reports that admission would exceed the queue bound:
// the submission is shed (HTTP 429 + Retry-After) rather than letting
// latency grow without limit.
var ErrQueueFull = errors.New("jobs: queue full, try again later")

// ErrDraining reports that the server has stopped admitting work
// (graceful shutdown in progress, HTTP 503).
var ErrDraining = errors.New("jobs: server draining, not admitting jobs")

// ErrRateLimited reports that the tenant's token bucket is empty: the
// submission is refused before it reaches the fair queue (HTTP 429 +
// Retry-After).
var ErrRateLimited = errors.New("jobs: tenant rate limit exceeded, try again later")

// Queue is the bounded admission queue with strict priority bands
// layered over per-tenant fair scheduling. Each priority level
// (Spec.Priority, 0..MaxPriority) is its own stride scheduler: Pop
// always serves the highest non-empty band, so interactive and
// failover work preempts bulk traffic outright; within a band, each
// tenant owns a FIFO and a virtual "pass", and the dispatcher picks
// the active tenant with the smallest pass, advancing it by 1.
// A tenant hammering one band therefore cannot starve the others in
// that band (a 10:1 hostile mix still dequeues ~alternately, see the
// fairness test), and a bulk flood cannot delay an interactive job at
// all. Jobs within one (tenant, priority) pair stay strictly FIFO.
type Queue struct {
	mu   sync.Mutex
	cond *sync.Cond
	cap  int
	size int
	// levels holds one stride scheduler per priority band in use.
	levels map[int]*prioLevel
	// acct is per-tenant accounting across every band.
	acct   map[string]*tenantAcct
	closed bool
}

// prioLevel is one strict priority band: an independent stride
// scheduler with its own virtual clock.
type prioLevel struct {
	tenants map[string]*tenantFIFO
	// globalPass is the band's virtual clock: the pass of the last
	// dispatch. A tenant going from idle to active starts at the
	// current clock rather than its stale pass, so sleeping never
	// accrues credit.
	globalPass int64
	size       int
}

type tenantFIFO struct {
	name string
	jobs []*Job
	pass int64
}

// tenantAcct is one tenant's admission accounting, aggregated across
// priority bands (guarded by Queue.mu).
type tenantAcct struct {
	queued      int
	admitted    int64
	shed        int64
	completed   int64
	failed      int64
	cancelled   int64
	retried     int64
	rateLimited int64
}

// NewQueue builds a queue admitting at most capacity jobs across all
// tenants and priority bands (minimum 1).
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	q := &Queue{
		cap:    capacity,
		levels: map[int]*prioLevel{},
		acct:   map[string]*tenantAcct{},
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *Queue) account(name string) *tenantAcct {
	a, ok := q.acct[name]
	if !ok {
		a = &tenantAcct{}
		q.acct[name] = a
	}
	return a
}

func (q *Queue) level(priority int) *prioLevel {
	l, ok := q.levels[priority]
	if !ok {
		l = &prioLevel{tenants: map[string]*tenantFIFO{}}
		q.levels[priority] = l
	}
	return l
}

func (l *prioLevel) tenant(name string) *tenantFIFO {
	t, ok := l.tenants[name]
	if !ok {
		t = &tenantFIFO{name: name}
		l.tenants[name] = t
	}
	return t
}

// Enqueue admits a job or refuses with ErrQueueFull / ErrDraining.
func (q *Queue) Enqueue(j *Job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	a := q.account(j.Spec.Tenant)
	if q.closed {
		return ErrDraining
	}
	if q.size >= q.cap {
		a.shed++
		return ErrQueueFull
	}
	l := q.level(j.Spec.Priority)
	t := l.tenant(j.Spec.Tenant)
	if len(t.jobs) == 0 && t.pass < l.globalPass {
		t.pass = l.globalPass
	}
	t.jobs = append(t.jobs, j)
	l.size++
	a.admitted++
	a.queued++
	q.size++
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available and returns the pick: the
// highest non-empty priority band's fair-share choice. It returns
// ok=false once the queue is closed and fully drained — the workers'
// exit signal.
func (q *Queue) Pop() (*Job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.size == 0 {
		if q.closed {
			return nil, false
		}
		q.cond.Wait()
	}
	var band *prioLevel
	for p := MaxPriority; p >= 0; p-- {
		if l, ok := q.levels[p]; ok && l.size > 0 {
			band = l
			break
		}
	}
	var pick *tenantFIFO
	for _, t := range band.tenants {
		if len(t.jobs) == 0 {
			continue
		}
		if pick == nil || t.pass < pick.pass || (t.pass == pick.pass && t.name < pick.name) {
			pick = t
		}
	}
	j := pick.jobs[0]
	pick.jobs = pick.jobs[1:]
	band.size--
	q.size--
	q.account(j.Spec.Tenant).queued--
	band.globalPass = pick.pass
	pick.pass++
	return j, true
}

// Remove takes a still-queued job out of its band's tenant FIFO (a
// cancellation racing admission). It reports whether the job was
// found; false means a worker already popped it (or it was never
// queued) and the caller must cancel through the job's context
// instead. The freed slot is immediately available to Enqueue.
func (q *Queue) Remove(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	l, ok := q.levels[j.Spec.Priority]
	if !ok {
		return false
	}
	t, ok := l.tenants[j.Spec.Tenant]
	if !ok {
		return false
	}
	for i, x := range t.jobs {
		if x == j {
			t.jobs = append(t.jobs[:i], t.jobs[i+1:]...)
			l.size--
			q.size--
			q.account(j.Spec.Tenant).queued--
			return true
		}
	}
	return false
}

// noteRetry charges one retry to the tenant's accounting (the retried
// job re-enters its tenant's FIFO, so the fair-share stride charges
// the re-dispatch to the same tenant automatically).
func (q *Queue) noteRetry(tenant string) {
	q.mu.Lock()
	q.account(tenant).retried++
	q.mu.Unlock()
}

// noteRateLimited books one refused-by-rate-limit submission.
func (q *Queue) noteRateLimited(tenant string) {
	q.mu.Lock()
	q.account(tenant).rateLimited++
	q.mu.Unlock()
}

// Close stops admission; queued jobs still drain through Pop.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Depth is the number of queued (admitted, not yet running) jobs.
func (q *Queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.size
}

// finish books a job's terminal state into its tenant's counters.
func (q *Queue) finish(tenant string, st State) {
	q.mu.Lock()
	defer q.mu.Unlock()
	a := q.account(tenant)
	switch st {
	case StateDone:
		a.completed++
	case StateCancelled:
		a.cancelled++
	default: // failed, quarantined
		a.failed++
	}
}

// TenantStats is one tenant's admission accounting.
type TenantStats struct {
	Admitted  int64 `json:"admitted"`
	Shed      int64 `json:"shed"`
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed"`
	Queued    int   `json:"queued"`
	Cancelled int64 `json:"cancelled,omitempty"`
	Retried   int64 `json:"retried,omitempty"`
	// RateLimited counts submissions refused by the tenant's token
	// bucket (never admitted, so not part of Admitted or Shed).
	RateLimited int64 `json:"rate_limited,omitempty"`
}

// Stats snapshots every tenant's counters.
func (q *Queue) Stats() map[string]TenantStats {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make(map[string]TenantStats, len(q.acct))
	for name, a := range q.acct {
		out[name] = TenantStats{
			Admitted:    a.admitted,
			Shed:        a.shed,
			Completed:   a.completed,
			Failed:      a.failed,
			Queued:      a.queued,
			Cancelled:   a.cancelled,
			Retried:     a.retried,
			RateLimited: a.rateLimited,
		}
	}
	return out
}
