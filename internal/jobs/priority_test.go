package jobs

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"vbuscluster/internal/bench"
)

func prioJob(tenant string, n, prio int) *Job {
	return &Job{
		ID:   fmt.Sprintf("%s-p%d-%d", tenant, prio, n),
		Spec: Spec{Tenant: tenant, Priority: prio},
		done: make(chan struct{}),
	}
}

// TestQueuePriorityBandsPreempt: a higher band always dispatches
// before any lower band has a turn, whatever the arrival order.
func TestQueuePriorityBandsPreempt(t *testing.T) {
	q := NewQueue(64)
	for i := 0; i < 10; i++ {
		if err := q.Enqueue(prioJob("bulk", i, 0)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(prioJob("live", i, 9)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2; i++ {
		if err := q.Enqueue(prioJob("mid", i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	order := drainOrder(q)
	want := []int{9, 9, 9, 5, 5, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0}
	if len(order) != len(want) {
		t.Fatalf("drained %d jobs, want %d", len(order), len(want))
	}
	prioOf := map[byte]int{'l': 9, 'm': 5, 'b': 0}
	for i, id := range order {
		if got := prioOf[id[0]]; got != want[i] {
			t.Fatalf("dispatch %d: job %s (band %d), want band %d\norder: %v", i, id, got, want[i], order)
		}
	}
}

// TestQueuePriorityFairnessWithinBand: stride fairness still holds
// inside one band — a hostile tenant with 30 queued priority-5 jobs
// cannot starve a victim's 3 at the same priority.
func TestQueuePriorityFairnessWithinBand(t *testing.T) {
	q := NewQueue(64)
	for i := 0; i < 30; i++ {
		if err := q.Enqueue(prioJob("hostile", i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(prioJob("victim", i, 5)); err != nil {
			t.Fatal(err)
		}
	}
	order := drainOrder(q)
	last := -1
	for pos, id := range order {
		if id == "victim-p5-2" {
			last = pos
		}
	}
	if last < 0 || last >= 6 {
		t.Fatalf("victim's last job left at position %d, want < 6 under stride fairness", last)
	}
}

// TestQueueRemoveAcrossBands: cancellation finds a job whatever band
// it sits in, and per-tenant queued accounting follows it out.
func TestQueueRemoveAcrossBands(t *testing.T) {
	q := NewQueue(64)
	jLow := prioJob("a", 0, 0)
	jHigh := prioJob("a", 0, 9)
	for _, j := range []*Job{jLow, prioJob("a", 1, 0), jHigh} {
		if err := q.Enqueue(j); err != nil {
			t.Fatal(err)
		}
	}
	if !q.Remove(jHigh) {
		t.Fatal("Remove lost a queued high-priority job")
	}
	if q.Remove(jHigh) {
		t.Fatal("Remove found an already-removed job")
	}
	if st := q.Stats()["a"]; st.Queued != 2 {
		t.Fatalf("queued accounting after cross-band remove: %d, want 2", st.Queued)
	}
	for _, id := range drainOrder(q) {
		if id == jHigh.ID {
			t.Fatal("removed job still dispatched")
		}
	}
	if st := q.Stats()["a"]; st.Queued != 0 {
		t.Fatalf("queued accounting after drain: %d, want 0", st.Queued)
	}
}

// TestPriorityOutOfRangeRejected: priorities outside [0, MaxPriority]
// are spec errors, rejected at admission.
func TestPriorityOutOfRangeRejected(t *testing.T) {
	s := New(Config{Clusters: 1})
	defer s.Drain(context.Background())
	for _, p := range []int{-1, MaxPriority + 1, 99} {
		if _, err := s.Submit(Spec{Source: bench.MMSource(8), Tenant: "t", Priority: p}); err == nil {
			t.Fatalf("priority %d admitted, want rejection", p)
		}
	}
	j, err := s.Submit(Spec{Source: bench.MMSource(8), Tenant: "t", Priority: MaxPriority})
	if err != nil {
		t.Fatalf("priority %d rejected: %v", MaxPriority, err)
	}
	<-j.Done()
	if v := j.Snapshot(); v.Priority != MaxPriority {
		t.Fatalf("job view priority %d, want %d", v.Priority, MaxPriority)
	}
}

// TestCancelQueuedRefundsRateToken is the admission-refund contract: a
// job cancelled before it ever ran gives its rate-limiter token back,
// so cancel-heavy interactive use doesn't eat the tenant's budget.
func TestCancelQueuedRefundsRateToken(t *testing.T) {
	// No workers: submissions stay queued, nothing runs. The refill
	// rate is negligible, so the only way to regain a token is refund.
	s := newServer(Config{RatePerSec: 0.0001, RateBurst: 1, QueueDepth: 8})
	spec := Spec{Source: bench.MMSource(8), Tenant: "t"}

	j1, err := s.Submit(spec)
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if _, err := s.Submit(spec); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("second submit: %v, want ErrRateLimited", err)
	}
	if _, ok := s.Cancel(j1.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	if _, err := s.Submit(spec); err != nil {
		t.Fatalf("submit after refunding cancel: %v, want admission", err)
	}
	// The refunded token is spent again: a fourth submission is limited.
	if _, err := s.Submit(spec); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("fourth submit: %v, want ErrRateLimited", err)
	}
}

// TestCancelRunningDoesNotRefund: only never-ran jobs refund — a job
// that already consumed cluster time keeps its token spent.
func TestCancelRunningDoesNotRefund(t *testing.T) {
	s := New(Config{Clusters: 1, RatePerSec: 0.0001, RateBurst: 1})
	defer s.Drain(context.Background())
	j1, err := s.Submit(Spec{Source: bench.MMSource(16), Tenant: "t"})
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done() // ran to completion: attempts > 0, no refund path
	s.Cancel(j1.ID)
	if _, err := s.Submit(Spec{Source: bench.MMSource(16), Tenant: "t"}); !errors.Is(err, ErrRateLimited) {
		t.Fatalf("submit after cancelling a ran job: %v, want ErrRateLimited (no refund)", err)
	}
}
