package jobs

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/core"
	"vbuscluster/internal/interp"
)

// seamed builds a server whose runs go through run, then starts its
// workers, so no worker can read the seam while it is being set.
func seamed(cfg Config, run func(*Job, *core.Compiled, core.RunParams) (*interp.Result, error)) *Server {
	s := newServer(cfg)
	s.run = run
	s.startWorkers(s.cfg.Clusters)
	return s
}

// poisonRun panics inside the worker on every run of mmSpec's program,
// as a plan that trips a compiler or runtime bug would, and runs any
// other program as the server does.
func poisonRun(j *Job, cc *core.Compiled, rp core.RunParams) (*interp.Result, error) {
	if j.Spec.Source == mmSpec("").Source {
		panic("poison plan")
	}
	return cc.RunParallelWith(j.Spec.runMode(), rp)
}

// hungRun never finishes on its own: it returns only when the job's
// context is cancelled or its deadline passes.
func hungRun(j *Job, cc *core.Compiled, rp core.RunParams) (*interp.Result, error) {
	<-rp.Ctx.Done()
	return nil, rp.Ctx.Err()
}

// waitTerminal waits for any terminal state (unlike waitDone it does
// not require success) and returns the final snapshot.
func waitTerminal(t *testing.T, j *Job) View {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(30 * time.Second):
		t.Fatalf("job %s did not reach a terminal state", j.ID)
	}
	return j.Snapshot()
}

// TestServerDeadlineCancelsStalledJob: a hung run against a short
// deadline must come back cancelled near the deadline.
func TestServerDeadlineCancelsStalledJob(t *testing.T) {
	s := seamed(Config{Clusters: 1}, hungRun)
	defer s.Drain(context.Background())
	sp := mmSpec("dl")
	sp.DeadlineMs = 30
	start := time.Now()
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (err: %v)", v.State, j.Err())
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("deadline cancel took %v against a 30ms deadline", d)
	}
	if s.Metrics().Cancelled != 1 {
		t.Fatal("cancelled counter did not move")
	}
}

// TestServerDeadlineCancelsRunningJob: the deadline must also reach
// inside an executing simulation (via the context monitor and the
// world cancel), not only a run that waits on the context.
func TestServerDeadlineCancelsRunningJob(t *testing.T) {
	s := New(Config{Clusters: 1})
	defer s.Drain(context.Background())
	// A large MM whose run far exceeds the 1ms deadline: the context
	// fires while the simulation executes (or before it starts) and the
	// run must unwind instead of finishing. A timing run of MM 1024
	// finishes in a few milliseconds, inside timer latency; a full run
	// of MM 384 executes 56 M inner iterations (hundreds of
	// milliseconds), so the cancel cannot lose the race to completion.
	j, err := s.Submit(Spec{Source: bench.MMSource(384), Tenant: "dl", DeadlineMs: 1, Mode: "full"})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, j); v.State != StateCancelled {
		t.Fatalf("state %s, want cancelled (err: %v)", v.State, j.Err())
	}
}

// TestServerPanicIsolationAndBreaker: a poison plan fails its own job
// with the recovered stack, the worker is replaced, and the second
// panic on the same plan key trips the breaker so the third submission
// is quarantined without running. A clean job still completes after
// all of it.
func TestServerPanicIsolationAndBreaker(t *testing.T) {
	s := seamed(Config{Clusters: 1}, poisonRun)
	defer s.Drain(context.Background())
	poison := mmSpec("boom")
	for i := 0; i < 2; i++ {
		j, err := s.Submit(poison)
		if err != nil {
			t.Fatal(err)
		}
		v := waitTerminal(t, j)
		if v.State != StateFailed {
			t.Fatalf("poison job %d state %s, want failed", i, v.State)
		}
		if err := j.Err(); err == nil || !strings.Contains(err.Error(), "panic") {
			t.Fatalf("poison job %d error %v, want a recovered panic with stack", i, err)
		}
	}
	j, err := s.Submit(poison)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, j); v.State != StateQuarantined {
		t.Fatalf("post-trip poison state %s, want quarantined", v.State)
	}
	m := s.Metrics()
	if m.PanicsRecovered != 2 || m.BreakerTrips != 1 || m.Quarantined != 1 || m.WorkersReplaced != 2 {
		t.Fatalf("panics=%d trips=%d quarantined=%d replaced=%d, want 2/1/1/2",
			m.PanicsRecovered, m.BreakerTrips, m.Quarantined, m.WorkersReplaced)
	}
	// A different program still runs: the quarantine is per plan key.
	clean, err := s.Submit(Spec{Source: bench.CFFTSource(7), Tenant: "boom"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean)
}

// TestServerRetriesTransientFault: an injected rank crash is a
// transient cluster fault; the job must burn its whole retry budget
// (visible in Attempts and the retries counter) before failing.
func TestServerRetriesTransientFault(t *testing.T) {
	s := New(Config{Clusters: 1, MaxRetries: 1, RetryBackoff: time.Millisecond})
	defer s.Drain(context.Background())
	sp := mmSpec("crashy")
	sp.Faults = "seed=1,crash=1@10us"
	j, err := s.Submit(sp)
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.State != StateFailed {
		t.Fatalf("state %s, want failed after retries exhausted", v.State)
	}
	if v.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (original + 1 retry)", v.Attempts)
	}
	m := s.Metrics()
	if m.Retries != 1 || m.Tenants["crashy"].Retried != 1 {
		t.Fatalf("retries=%d tenant retried=%d, want 1/1", m.Retries, m.Tenants["crashy"].Retried)
	}
}

// TestWrongProgramIsNotRetried: a program that fails on a slave (its
// last partition stores past the end of A) is a wrong program, not a
// transient cluster fault. The run reports the slave's own error, so
// the job fails on its first attempt and burns no retry.
func TestWrongProgramIsNotRetried(t *testing.T) {
	s := New(Config{Clusters: 1, RetryBackoff: time.Millisecond})
	defer s.Drain(context.Background())
	j, err := s.Submit(Spec{Tenant: "wrong", Mode: "full", Source: `
      PROGRAM OOB
      INTEGER N
      PARAMETER (N = 16)
      REAL A(N)
      INTEGER I
      DO I = 1, N
        A(I+1) = REAL(I)
      ENDDO
      PRINT *, A(2)
      END
`})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, j)
	if v.State != StateFailed || v.Attempts != 1 {
		t.Fatalf("state %s after %d attempts, want failed after 1", v.State, v.Attempts)
	}
	if m := s.Metrics(); m.Retries != 0 {
		t.Fatalf("retries = %d, want 0", m.Retries)
	}
	if err := j.Err(); err == nil || !strings.Contains(err.Error(), "subscript out of bounds") {
		t.Fatalf("error %v, want the subscript error", err)
	}
}

// TestServerKillWorkerKeepsCapacity: two jobs whose runs panic kill
// the only worker of a 1-cluster server twice; it is replaced each
// time, so a clean job still completes.
func TestServerKillWorkerKeepsCapacity(t *testing.T) {
	s := seamed(Config{Clusters: 1}, poisonRun)
	defer s.Drain(context.Background())
	for i := 0; i < 2; i++ {
		j, err := s.Submit(mmSpec("killer"))
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminal(t, j); v.State != StateFailed {
			t.Fatalf("panicking job %d state %s, want failed", i, v.State)
		}
	}
	if got := s.Metrics().WorkersReplaced; got != 2 {
		t.Fatalf("workers replaced = %d, want 2", got)
	}
	clean, err := s.Submit(Spec{Source: bench.CFFTSource(7), Tenant: "killer"})
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, clean)
}

// TestKillCountedBeforeJobSettles: a worker replacement is counted
// before the job that killed the worker is finalised, so a client
// reading WorkersReplaced as soon as the job settles already sees the
// kill. The test plays the cluster itself and never lets the killed
// worker run past process.
// The subtest is named for the case it covers: the job's one run
// panics, killing one worker.
func TestKillCountedBeforeJobSettles(t *testing.T) {
	t.Run("panicjob=1", func(t *testing.T) {
		s := newServer(Config{Clusters: 2})
		s.run = poisonRun
		defer s.Drain(context.Background())
		j, err := s.Submit(mmSpec("killer"))
		if err != nil {
			t.Fatal(err)
		}
		next, ok := s.queue.Pop()
		if !ok {
			t.Fatal("queue closed before the job ran")
		}
		killed := s.process(next)
		if st := j.Snapshot().State; st != StateFailed || !killed {
			t.Fatalf("job %s, worker killed %v; want failed and killed", st, killed)
		}
		if got := s.Metrics().WorkersReplaced; got != 1 {
			t.Fatalf("workers replaced = %d when the job settled, want 1", got)
		}
	})
}

// TestServerCancelShedRaceAtCapacity is the queue-accounting torture
// test: with the queue exactly full and no workers running, cancelling
// a queued job must free its slot immediately (the next submission is
// admitted, not shed), never double-complete, and the cancelled job
// must still be drained out of the retained-jobs table by later
// retirements.
func TestServerCancelShedRaceAtCapacity(t *testing.T) {
	s := newServer(Config{Clusters: 1, QueueDepth: 3, RetainJobs: 2})
	var admitted []*Job
	for i := 0; i < 3; i++ {
		j, err := s.Submit(mmSpec("full"))
		if err != nil {
			t.Fatal(err)
		}
		admitted = append(admitted, j)
	}
	if _, err := s.Submit(mmSpec("full")); err != ErrQueueFull {
		t.Fatalf("overflow submit: got %v, want ErrQueueFull", err)
	}
	// Cancel a queued job: slot freed, terminal immediately.
	victim := admitted[1]
	if _, ok := s.Cancel(victim.ID); !ok {
		t.Fatal("cancel of a queued job reported no such job")
	}
	if v := victim.Snapshot(); v.State != StateCancelled {
		t.Fatalf("cancelled-in-queue state %s, want cancelled", v.State)
	}
	select {
	case <-victim.Done():
	default:
		t.Fatal("cancelled job's Done channel still open")
	}
	// The freed slot is immediately usable — the race this test guards:
	// a leaked slot would shed this admission.
	extra, err := s.Submit(mmSpec("full"))
	if err != nil {
		t.Fatalf("submit after cancel freed a slot: %v", err)
	}
	// Cancelling again (and cancelling a finished job) must be a no-op,
	// not a double finalize (a second close of Done would panic).
	if _, ok := s.Cancel(victim.ID); !ok {
		t.Fatal("re-cancel lost the job record")
	}
	s.startWorkers(1)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, j := range []*Job{admitted[0], admitted[2], extra} {
		if v := j.Snapshot(); v.State != StateDone {
			t.Fatalf("job %s state %s after drain, want done", j.ID, v.State)
		}
	}
	if v := victim.Snapshot(); v.State != StateCancelled {
		t.Fatalf("victim state changed to %s after drain; cancelled is terminal", v.State)
	}
	// RetainJobs=2: four terminal jobs retired, only the last two records
	// survive — the cancelled entry was evicted, not leaked.
	s.mu.Lock()
	retained := len(s.jobs)
	s.mu.Unlock()
	if retained != 2 {
		t.Fatalf("retained %d job records, want 2 (RetainJobs)", retained)
	}
	if _, ok := s.Job(victim.ID); ok {
		t.Fatal("cancelled job's record survived eviction")
	}
}

// TestServerRateLimitAdmission: a tenant over its token budget is
// refused before the fair queue (no slot consumed), other tenants are
// unaffected, and the Retry-After estimate stays in its documented
// range.
func TestServerRateLimitAdmission(t *testing.T) {
	s := newServer(Config{Clusters: 1, QueueDepth: 32, TenantRates: map[string]float64{"greedy": 1}})
	var refused int
	for i := 0; i < 10; i++ {
		_, err := s.Submit(mmSpec("greedy"))
		if errors.Is(err, ErrRateLimited) {
			refused++
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if refused == 0 {
		t.Fatal("ten instant submissions at 1 job/s: none rate-limited")
	}
	m := s.Metrics()
	if m.RateLimited != int64(refused) || m.Tenants["greedy"].RateLimited != int64(refused) {
		t.Fatalf("rate-limited counters %d/%d, want %d", m.RateLimited, m.Tenants["greedy"].RateLimited, refused)
	}
	if m.QueueDepth != 10-refused {
		t.Fatalf("queue depth %d: refused submissions consumed slots", m.QueueDepth)
	}
	if _, err := s.Submit(mmSpec("patient")); err != nil {
		t.Fatalf("unlimited tenant refused: %v", err)
	}
	if ra := s.RetryAfterSeconds(); ra < 1 || ra > 30 {
		t.Fatalf("Retry-After %d out of [1,30]", ra)
	}
	s.startWorkers(1)
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// TestRateLimiterRefill pins the token-bucket math with a fake clock:
// burst tokens, then exactly rate tokens per second, independent
// buckets per tenant.
func TestRateLimiterRefill(t *testing.T) {
	l := newRateLimiter(2, 2, nil)
	now := time.Unix(1000, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 2; i++ {
		if !l.allow("a") {
			t.Fatalf("burst token %d refused", i)
		}
	}
	if l.allow("a") {
		t.Fatal("third instant request allowed past a burst of 2")
	}
	if !l.allow("b") {
		t.Fatal("tenant b shares tenant a's bucket")
	}
	now = now.Add(500 * time.Millisecond) // 2/s × 0.5s = 1 token
	if !l.allow("a") {
		t.Fatal("no token after a half-second refill at 2/s")
	}
	if l.allow("a") {
		t.Fatal("half-second refill granted more than one token")
	}
	// Overrides: rate 0 for the default means unlimited; an override
	// still binds its tenant.
	lo := newRateLimiter(0, 0, map[string]float64{"slow": 1})
	lo.now = func() time.Time { return now }
	for i := 0; i < 100; i++ {
		if !lo.allow("anyone") {
			t.Fatal("default-unlimited tenant refused")
		}
	}
	lo.allow("slow")
	lo.allow("slow")
	if lo.allow("slow") {
		t.Fatal("override tenant never limited")
	}
	var nilL *rateLimiter
	if !nilL.allow("x") {
		t.Fatal("nil limiter (no limits configured) must allow everything")
	}
}
