package serve

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"vbuscluster/internal/bench"
	"vbuscluster/internal/jobs"
)

// ChaosResult is the record of one seeded chaos sweep: a hostile
// workload — poison specs, worker kills, deadline storms, transient
// cluster faults, a rate-limited hostile tenant — driven against an
// in-process server, with every robustness claim asserted rather than
// eyeballed. The sweep fails (error, not a sad row) if any claim does
// not hold, so `vbbench -sweep chaos` doubles as a CI gate.
type ChaosResult struct {
	Seed     uint64  `json:"seed"`
	WallSec  float64 `json:"wall_seconds"`
	Jobs     int64   `json:"jobs_submitted"`
	Done     int64   `json:"jobs_completed"`
	Failed   int64   `json:"jobs_failed"`
	Canceled int64   `json:"jobs_cancelled"`
	// Quarantined jobs were refused by the open circuit breaker after
	// the poison plan key tripped it.
	Quarantined     int64 `json:"jobs_quarantined"`
	RateLimited     int64 `json:"jobs_rate_limited"`
	Retries         int64 `json:"retries"`
	PanicsRecovered int64 `json:"panics_recovered"`
	BreakerTrips    int64 `json:"breaker_trips"`
	WorkersReplaced int64 `json:"workers_replaced"`
	// MaxOverrunMs is the worst observed lateness of a deadline
	// cancellation past the deadline itself (queueing + timer slop).
	MaxOverrunMs float64 `json:"max_deadline_overrun_ms"`
	// WarmHitRate is the plan-cache hit rate of the post-restart replay:
	// the crash-safe journal's proof of usefulness.
	WarmHitRate float64 `json:"warm_hit_rate"`
	// GoroutinesBefore/After bracket the sweep; After is sampled once
	// both servers have drained, proving nothing leaked.
	GoroutinesBefore int `json:"goroutines_before"`
	GoroutinesAfter  int `json:"goroutines_after"`
}

// deadlineGrace is how late a deadline cancellation may land before
// the sweep calls it a violation. Generous because CI hosts running
// the race detector schedule timers lazily; the point is to catch a
// deadline that never fires, not a 100ms-late one.
const deadlineGrace = 2 * time.Second

// chaosConfig is the server shape under test: small enough that the
// sweep finishes in seconds, hostile-tenant rate limit included.
func chaosConfig() jobs.Config {
	return jobs.Config{
		Clusters:     2,
		QueueDepth:   32,
		MaxRetries:   2,
		RetryBackoff: 5 * time.Millisecond,
		TenantRates:  map[string]float64{"hostile": 1},
	}
}

// ChaosSweep runs the whole hostile scenario. The seed parameterizes
// the injected fault schedules, so a failure reproduces with the same
// seed. Phases, in order: clean warmup; poison specs until the breaker
// quarantines their plan key; worker-kill jobs; a deadline storm of
// stalled jobs; deterministic transient cluster faults that exhaust the
// retry budget; a 10:1 hostile-tenant flood against a rate limit; a
// drain + journal + restart + replay proving the cache survives; and a
// final goroutine census proving nothing leaked.
func ChaosSweep(seed uint64) (*ChaosResult, error) {
	res := &ChaosResult{Seed: seed}
	// Let earlier tests' stray goroutines settle before the baseline.
	runtime.GC()
	time.Sleep(20 * time.Millisecond)
	res.GoroutinesBefore = runtime.NumGoroutine()
	start := time.Now()

	dir, err := os.MkdirTemp("", "vbchaos")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	journal := filepath.Join(dir, "plans.vbpj")

	mix := []jobs.Spec{
		{Source: bench.MMSource(24), Procs: 4, Tenant: "victim"},
		{Source: bench.SwimSource(32, 32), Procs: 4, Tenant: "victim"},
		{Source: bench.CFFTSource(8), Procs: 4, Tenant: "victim"},
	}

	srv := jobs.New(chaosConfig())

	// Phase 1: clean warmup — the cache fills with the mix's three plans.
	for round := 0; round < 2; round++ {
		for i, sp := range mix {
			if err := runJob(srv, sp, jobs.StateDone); err != nil {
				return nil, fmt.Errorf("chaos: warmup job %d: %w", i, err)
			}
		}
	}

	// Phase 2: poison. The same poison plan key panics its worker twice;
	// the breaker trips and the third submission is quarantined without
	// touching a worker. A distinct source keeps the quarantine away
	// from the clean mix.
	poison := jobs.Spec{
		Source: bench.MMSource(17), Procs: 2, Tenant: "victim",
		Faults: fmt.Sprintf("seed=%d,panicjob=1", seed),
	}
	for i := 0; i < 2; i++ {
		if err := runJob(srv, poison, jobs.StateFailed); err != nil {
			return nil, fmt.Errorf("chaos: poison job %d: %w", i, err)
		}
	}
	if err := runJob(srv, poison, jobs.StateQuarantined); err != nil {
		return nil, fmt.Errorf("chaos: poison job post-trip: %w", err)
	}
	m := srv.Metrics()
	if m.PanicsRecovered < 2 || m.BreakerTrips < 1 || m.Quarantined < 1 {
		return nil, fmt.Errorf("chaos: breaker did not engage: panics=%d trips=%d quarantined=%d",
			m.PanicsRecovered, m.BreakerTrips, m.Quarantined)
	}
	// Capacity must be intact after the panics killed two workers.
	if err := runJob(srv, mix[0], jobs.StateDone); err != nil {
		return nil, fmt.Errorf("chaos: clean job after panics: %w", err)
	}

	// Phase 3: worker kills. The job assassinates two workers, re-queues
	// itself each time, and still completes.
	killer := mix[1]
	killer.Faults = fmt.Sprintf("seed=%d,killworker=2", seed)
	if err := runJob(srv, killer, jobs.StateDone); err != nil {
		return nil, fmt.Errorf("chaos: killworker job: %w", err)
	}
	if got := srv.Metrics().WorkersReplaced; got < 4 {
		return nil, fmt.Errorf("chaos: workers replaced = %d, want >= 4 (2 panics + 2 kills)", got)
	}

	// Phase 4: deadline storm. Six stalled jobs against a 40ms deadline
	// on two workers: every one must come back cancelled, none much
	// later than its deadline.
	type admitted struct {
		j  *jobs.Job
		at time.Time
	}
	var storm []admitted
	const stormDeadline = 40 * time.Millisecond
	for i := 0; i < 6; i++ {
		sp := mix[i%len(mix)]
		sp.DeadlineMs = int(stormDeadline / time.Millisecond)
		sp.Faults = "stalljob=500ms"
		j, err := srv.Submit(sp)
		if err != nil {
			return nil, fmt.Errorf("chaos: storm submit %d: %w", i, err)
		}
		storm = append(storm, admitted{j, time.Now()})
	}
	for i, a := range storm {
		<-a.j.Done()
		v := a.j.Snapshot()
		if v.State != jobs.StateCancelled {
			return nil, fmt.Errorf("chaos: storm job %d ended %q, want cancelled (%v)", i, v.State, a.j.Err())
		}
		overrun := time.Since(a.at) - stormDeadline
		if overrun > deadlineGrace {
			return nil, fmt.Errorf("chaos: storm job %d overran its deadline by %v (grace %v)", i, overrun, deadlineGrace)
		}
		if ms := overrun.Seconds() * 1e3; ms > res.MaxOverrunMs {
			res.MaxOverrunMs = ms
		}
	}

	// Phase 5: transient cluster faults. A deterministic rank crash
	// fails every attempt, so the job burns its full retry budget and
	// lands failed — the retries counter proves the backoff path ran.
	crashy := mix[2]
	crashy.Faults = fmt.Sprintf("seed=%d,crash=1@10us", seed|1)
	if err := runJob(srv, crashy, jobs.StateFailed); err != nil {
		return nil, fmt.Errorf("chaos: transient-fault job: %w", err)
	}
	if got := srv.Metrics().Retries; got < 2 {
		return nil, fmt.Errorf("chaos: retries = %d, want >= 2 (full budget)", got)
	}

	// Phase 6: hostile tenant. Twenty rapid-fire submissions from a
	// tenant limited to 1 job/s, interleaved with the victim's normal
	// work: the victim completes everything, the hostile tenant is
	// mostly rate-limited at admission and never occupies queue slots.
	var hostileAdmitted, hostileLimited int
	for i := 0; i < 20; i++ {
		sp := mix[i%len(mix)]
		sp.Tenant = "hostile"
		j, err := srv.Submit(sp)
		switch {
		case errors.Is(err, jobs.ErrRateLimited):
			hostileLimited++
		case err != nil:
			return nil, fmt.Errorf("chaos: hostile submit %d: %w", i, err)
		default:
			hostileAdmitted++
			<-j.Done()
		}
		if i%10 == 9 {
			if err := runJob(srv, mix[i%len(mix)], jobs.StateDone); err != nil {
				return nil, fmt.Errorf("chaos: victim job during flood: %w", err)
			}
		}
	}
	if hostileLimited == 0 {
		return nil, fmt.Errorf("chaos: hostile tenant was never rate-limited (%d admitted)", hostileAdmitted)
	}
	if ra := srv.RetryAfterSeconds(); ra < 1 || ra > 30 {
		return nil, fmt.Errorf("chaos: Retry-After estimate %d out of [1,30]", ra)
	}

	// Phase 7: drain, journal, restart warm, replay. The replay must be
	// nearly all cache hits — the journal carried the working set across
	// the restart.
	if err := srv.Drain(context.Background()); err != nil {
		return nil, fmt.Errorf("chaos: drain: %w", err)
	}
	m = srv.Metrics()
	res.Jobs = m.Submitted
	res.Done = m.Completed
	res.Failed = m.Failed
	res.Canceled = m.Cancelled
	res.Quarantined = m.Quarantined
	res.RateLimited = m.RateLimited
	res.Retries = m.Retries
	res.PanicsRecovered = m.PanicsRecovered
	res.BreakerTrips = m.BreakerTrips
	res.WorkersReplaced = m.WorkersReplaced
	if err := srv.SaveCache(journal); err != nil {
		return nil, fmt.Errorf("chaos: save journal: %w", err)
	}

	srv2 := jobs.New(chaosConfig())
	warmed, err := srv2.WarmCache(journal)
	if err != nil {
		return nil, fmt.Errorf("chaos: warm cache: %w", err)
	}
	if warmed < len(mix) {
		return nil, fmt.Errorf("chaos: warmed %d plans, want >= %d", warmed, len(mix))
	}
	for round := 0; round < 4; round++ {
		for i, sp := range mix {
			if err := runJob(srv2, sp, jobs.StateDone); err != nil {
				return nil, fmt.Errorf("chaos: replay job %d: %w", i, err)
			}
		}
	}
	if err := srv2.Drain(context.Background()); err != nil {
		return nil, fmt.Errorf("chaos: drain restarted server: %w", err)
	}
	res.WarmHitRate = srv2.Metrics().Cache.HitRate
	if res.WarmHitRate < 0.9 {
		return nil, fmt.Errorf("chaos: post-restart hit rate %.2f, want >= 0.9", res.WarmHitRate)
	}

	// Phase 8: goroutine census. Both servers are drained; give late
	// timer goroutines a moment, then require the count back near the
	// baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		res.GoroutinesAfter = runtime.NumGoroutine()
		if res.GoroutinesAfter <= res.GoroutinesBefore+8 || time.Now().After(deadline) {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if res.GoroutinesAfter > res.GoroutinesBefore+8 {
		return nil, fmt.Errorf("chaos: goroutine leak: %d before, %d after drain",
			res.GoroutinesBefore, res.GoroutinesAfter)
	}

	res.WallSec = time.Since(start).Seconds()
	return res, nil
}

// runJob submits sp, waits, and checks the terminal state.
func runJob(s *jobs.Server, sp jobs.Spec, want jobs.State) error {
	j, err := s.Submit(sp)
	if err != nil {
		return err
	}
	<-j.Done()
	if got := j.Snapshot().State; got != want {
		return fmt.Errorf("ended %q, want %q (err: %v)", got, want, j.Err())
	}
	return nil
}

// runChaos renders the sweep result as a readable block.
func runChaos(env bench.Env) (bench.Report, error) {
	r, err := ChaosSweep(env.SeedOr(42))
	if err != nil {
		return bench.Report{}, err
	}
	t := bench.Table{
		Title:     fmt.Sprintf("Chaos sweep (seed %d): all invariants held in %.2fs", r.Seed, r.WallSec),
		RowFormat: "  %s\n",
	}
	t.Add(fmt.Sprintf("jobs: %d submitted, %d done, %d failed, %d cancelled, %d quarantined, %d rate-limited",
		r.Jobs, r.Done, r.Failed, r.Canceled, r.Quarantined, r.RateLimited))
	t.Add(fmt.Sprintf("faults absorbed: %d panics recovered, %d breaker trips, %d workers replaced, %d retries",
		r.PanicsRecovered, r.BreakerTrips, r.WorkersReplaced, r.Retries))
	t.Add(fmt.Sprintf("worst deadline overrun: %.1fms; post-restart cache hit rate: %.2f", r.MaxOverrunMs, r.WarmHitRate))
	t.Add(fmt.Sprintf("goroutines: %d before, %d after", r.GoroutinesBefore, r.GoroutinesAfter))
	return bench.Report{
		Tables:  []bench.Table{t},
		Section: &bench.Section{File: serveFile, Schema: serveSchema, Key: "chaos", Value: r},
	}, nil
}
