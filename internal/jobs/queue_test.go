package jobs

import (
	"fmt"
	"testing"
)

func testJob(tenant string, n int) *Job {
	return &Job{
		ID:   fmt.Sprintf("%s-%d", tenant, n),
		Spec: Spec{Tenant: tenant},
		done: make(chan struct{}),
	}
}

// drainOrder pops every queued job and returns the dispatch order.
func drainOrder(q *Queue) []string {
	var order []string
	for q.Depth() > 0 {
		j, ok := q.Pop()
		if !ok {
			break
		}
		order = append(order, j.ID)
	}
	return order
}

func TestQueueShedsWhenFull(t *testing.T) {
	q := NewQueue(2)
	if err := q.Enqueue(testJob("a", 1)); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(testJob("a", 2)); err != nil {
		t.Fatal(err)
	}
	if err := q.Enqueue(testJob("a", 3)); err != ErrQueueFull {
		t.Fatalf("enqueue beyond capacity: got %v, want ErrQueueFull", err)
	}
	// Shedding is per-tenant-accounted and does not disturb the queue.
	st := q.Stats()["a"]
	if st.Admitted != 2 || st.Shed != 1 {
		t.Fatalf("tenant accounting: admitted=%d shed=%d, want 2/1", st.Admitted, st.Shed)
	}
	if q.Depth() != 2 {
		t.Fatalf("depth %d after shed, want 2", q.Depth())
	}
	// Draining a slot readmits.
	q.Pop()
	if err := q.Enqueue(testJob("a", 4)); err != nil {
		t.Fatalf("enqueue after pop: %v", err)
	}
}

// TestQueueFairnessHostileTenant is the 10:1 hostile mix: a tenant
// with 30 queued jobs must not starve a tenant with 3. Under stride
// scheduling with equal weights the dispatcher alternates, so every
// victim job leaves within the first 2*3 dispatches.
func TestQueueFairnessHostileTenant(t *testing.T) {
	q := NewQueue(64)
	for i := 0; i < 30; i++ {
		if err := q.Enqueue(testJob("hostile", i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		if err := q.Enqueue(testJob("victim", i)); err != nil {
			t.Fatal(err)
		}
	}
	order := drainOrder(q)
	if len(order) != 33 {
		t.Fatalf("drained %d jobs, want 33", len(order))
	}
	last := -1
	for pos, id := range order {
		if id == "victim-2" {
			last = pos
		}
	}
	if last < 0 || last >= 6 {
		t.Fatalf("victim's last job dispatched at position %d of %v; fair share is within the first 6", last, order[:8])
	}
	// Within one tenant the order stays FIFO.
	prev := -1
	for _, id := range order {
		var n int
		if _, err := fmt.Sscanf(id, "hostile-%d", &n); err == nil {
			if n != prev+1 {
				t.Fatalf("hostile tenant order broken: %v", order)
			}
			prev = n
		}
	}
}

// TestQueueIdleTenantGainsNoCredit: a tenant that slept while others
// ran must re-enter at the current virtual time, not bank its idle
// time into a burst.
func TestQueueIdleTenantGainsNoCredit(t *testing.T) {
	q := NewQueue(64)
	for i := 0; i < 10; i++ {
		q.Enqueue(testJob("busy", i))
	}
	for i := 0; i < 8; i++ {
		q.Pop()
	}
	// The sleeper arrives late with a backlog of 3.
	for i := 0; i < 3; i++ {
		q.Enqueue(testJob("late", i))
	}
	order := drainOrder(q)
	lateRun := 0
	maxRun := 0
	for _, id := range order {
		if id[:4] == "late" {
			lateRun++
			if lateRun > maxRun {
				maxRun = lateRun
			}
		} else {
			lateRun = 0
		}
	}
	if maxRun > 2 {
		t.Fatalf("idle tenant burst %d consecutive dispatches (banked credit): %v", maxRun, order)
	}
}

func TestQueueCloseStopsAdmissionDrainsBacklog(t *testing.T) {
	q := NewQueue(8)
	q.Enqueue(testJob("a", 1))
	q.Enqueue(testJob("a", 2))
	q.Close()
	if err := q.Enqueue(testJob("a", 3)); err != ErrDraining {
		t.Fatalf("enqueue after close: got %v, want ErrDraining", err)
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("backlog must drain after close")
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("backlog must fully drain after close")
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("drained closed queue must report done")
	}
}
