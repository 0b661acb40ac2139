package mpi

import (
	"errors"
	"testing"

	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/sim"
	"vbuscluster/internal/trace"
)

// TestCrashAfterOps: a rank with a crashafter budget completes exactly
// that many operations; the next one fails with ErrCrashed whose Time
// is the virtual time of detection (the rank's clock at the failing
// operation's entry), and a blocked peer observes ErrPeerCrashed.
func TestCrashAfterOps(t *testing.T) {
	shrinkWatchdog(t)
	var detectClock sim.Time
	_, _, errs := runFaultWorld(t, 2, "seed=0,crashafter=0/2", func(p *Proc) error {
		if p.Rank() == 0 {
			// Ops 1 and 2 fit the budget.
			if err := p.Send(1, 1, []float64{1}); err != nil {
				return err
			}
			if err := p.Send(1, 2, []float64{2}); err != nil {
				return err
			}
			detectClock = p.w.cl.Clock(0)
			// Op 3 exceeds it.
			return p.Send(1, 3, []float64{3})
		}
		if _, err := p.Recv(0, 1); err != nil {
			return err
		}
		if _, err := p.Recv(0, 2); err != nil {
			return err
		}
		_, err := p.Recv(0, 3)
		return err
	})
	var crashed *Error
	if !errors.As(errs[0], &crashed) || crashed.Kind != ErrCrashed {
		t.Fatalf("rank 0: got %v, want ErrCrashed", errs[0])
	}
	if crashed.Time != detectClock {
		t.Errorf("crash Time = %v, want the detection clock %v", crashed.Time, detectClock)
	}
	var peer *Error
	if !errors.As(errs[1], &peer) || peer.Kind != ErrPeerCrashed || peer.Peer != 0 {
		t.Fatalf("rank 1: got %v, want ErrPeerCrashed from rank 0", errs[1])
	}
}

// TestRevokeWakesBlockedRanks: revoking the communicator fails a rank
// blocked in a collective with ErrRevoked instead of leaving it
// waiting for arrivals that will never come.
func TestRevokeWakesBlockedRanks(t *testing.T) {
	shrinkWatchdog(t)
	entered := make(chan struct{})
	_, _, errs := runFaultWorld(t, 2, "seed=0,crashafter=0/0", func(p *Proc) error {
		if p.Rank() == 0 {
			<-entered
			p.w.Revoke()
			return nil
		}
		close(entered)
		return p.Barrier()
	})
	var revoked *Error
	if !errors.As(errs[1], &revoked) || revoked.Kind != ErrRevoked {
		t.Fatalf("rank 1: got %v, want ErrRevoked", errs[1])
	}
	if errs[0] != nil {
		t.Fatalf("rank 0: %v", errs[0])
	}
}

// TestAgreeShrinkRecover drives the full recovery protocol by hand:
// rank 1 of 4 exhausts its crashafter budget mid-run, the survivors
// agree on the failed set, shrink to a 3-rank world with contiguous
// ids over the surviving nodes, and run a recovery round plus a
// collective there — while the dead node's clock stays frozen.
func TestAgreeShrinkRecover(t *testing.T) {
	shrinkWatchdog(t)
	w, rec, errs := runFaultWorld(t, 4, "seed=0,crashafter=1/1", func(p *Proc) error {
		if err := p.Barrier(); err != nil {
			return err
		}
		return p.Barrier()
	})
	var sawCrash bool
	for _, err := range errs {
		var me *Error
		if errors.As(err, &me) && me.Kind == ErrCrashed {
			sawCrash = true
		}
	}
	if !sawCrash {
		t.Fatalf("no rank crashed: %v", errs)
	}

	failed := w.Agree()
	if len(failed) != 1 || failed[0] != 1 {
		t.Fatalf("Agree() = %v, want [1]", failed)
	}
	deadClock := w.cl.Clock(1)

	nw, err := w.Shrink(failed)
	if err != nil {
		t.Fatal(err)
	}
	defer nw.Shutdown()
	if nw.Size() != 3 {
		t.Fatalf("shrunken world size %d, want 3", nw.Size())
	}
	wantNodes := []int{0, 2, 3}
	for i, nd := range nw.Nodes() {
		if nd != wantNodes[i] {
			t.Fatalf("shrunken nodes = %v, want %v", nw.Nodes(), wantNodes)
		}
	}

	// Recovery round + a working collective on the survivors.
	done := make(chan error, 3)
	for r := 0; r < 3; r++ {
		go func(rank int) {
			p := nw.Rank(rank)
			if err := p.Recover(4096 * boolToInt(rank == 0)); err != nil {
				done <- err
				return
			}
			sum := must(p.Allreduce(Sum, []float64{1}))
			if len(sum) != 1 || sum[0] != 3 {
				t.Errorf("rank %d: allreduce = %v, want [3]", rank, sum)
			}
			done <- nil
		}(r)
	}
	for i := 0; i < 3; i++ {
		if err := <-done; err != nil {
			t.Fatalf("survivor: %v", err)
		}
	}

	// The dead node's clock froze at detection.
	if got := w.cl.Clock(1); got != deadClock {
		t.Errorf("dead node clock moved from %v to %v", deadClock, got)
	}
	// Survivors' recovery work is traced on the recovery transport,
	// keyed by physical node (node 2 = new rank 1).
	var recovery, onDead int
	for _, ev := range rec.Events() {
		if ev.Transport == interconnect.TransportRecovery {
			recovery++
			if ev.Rank == 1 {
				onDead++
			}
		}
	}
	if recovery == 0 {
		t.Error("no recovery-transport events recorded")
	}
	if onDead != 0 {
		t.Errorf("%d recovery events recorded on the dead node", onDead)
	}
}

// TestCheckpointRound: a checkpoint is a synchronizing collective that
// charges every rank the quiesce plus rank 0's snapshot stream, and
// is traced on the ckpt transport.
func TestCheckpointRound(t *testing.T) {
	w, rec, errs := runFaultWorld(t, 4, "", func(p *Proc) error {
		return p.Checkpoint(8192 * boolToInt(p.Rank() == 0))
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	// Synchronizing: all clocks equal and past the barrier cost.
	t0 := w.cl.Clock(0)
	if t0 < w.BarrierCost() {
		t.Errorf("checkpoint cost %v below the quiesce floor %v", t0, w.BarrierCost())
	}
	for r := 1; r < 4; r++ {
		if w.cl.Clock(r) != t0 {
			t.Errorf("rank %d clock %v != rank 0 clock %v after checkpoint", r, w.cl.Clock(r), t0)
		}
	}
	var ckpts int
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpCheckpoint {
			ckpts++
			if ev.Transport != interconnect.TransportCkpt {
				t.Errorf("checkpoint event on transport %v, want ckpt", ev.Transport)
			}
			if ev.Bytes != 0 {
				t.Errorf("checkpoint event accounts %d bytes, want 0", ev.Bytes)
			}
		}
	}
	if ckpts != 4 {
		t.Errorf("recorded %d checkpoint events, want 4", ckpts)
	}
}

// TestShrunkenBcastDegrades: on a communicator smaller than the
// machine, broadcast must take the software p2p tree — the hardware
// bus membership no longer matches — even with no faults injected.
func TestShrunkenBcastDegrades(t *testing.T) {
	w, rec, errs := runFaultWorld(t, 4, "", func(p *Proc) error {
		return nil
	})
	_ = errs
	w.Shutdown()
	nw := NewWorldOver(w.Cluster(), []int{0, 2, 3})
	defer nw.Shutdown()
	done := make(chan struct{})
	for r := 0; r < 3; r++ {
		go func(rank int) {
			defer func() { done <- struct{}{} }()
			p := nw.Rank(rank)
			var in []float64
			if rank == 0 {
				in = []float64{7, 8}
			}
			out := must(p.Bcast(0, in))
			if len(out) != 2 || out[0] != 7 {
				t.Errorf("rank %d: bcast payload %v", rank, out)
			}
		}(r)
	}
	for i := 0; i < 3; i++ {
		<-done
	}
	for _, ev := range rec.Events() {
		if ev.Op == trace.OpBcast && ev.Transport == interconnect.TransportBcast {
			t.Errorf("shrunken-world bcast used the hardware bus: %+v", ev)
		}
	}
}

// TestBcastLinkdownDetection: the virtual bus is built from the mesh
// links, so a link outage stalls a broadcast until the link recovers —
// and with a per-operation deadline injected, a broadcast stalled past
// it fails with ErrTimeout whose Time is the virtual time of detection
// (entry + deadline), never the post-stall clock.
func TestBcastLinkdownDetection(t *testing.T) {
	shrinkWatchdog(t)
	// No deadline: the outage is charged as a stall.
	w, _, errs := runFaultWorld(t, 2, "seed=0,linkdown=0-1@0ns+2ms", func(p *Proc) error {
		out, err := p.Bcast(0, []float64{7})
		if err == nil && (len(out) != 1 || out[0] != 7) {
			t.Errorf("rank %d: payload %v", p.Rank(), out)
		}
		return err
	})
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: %v", r, err)
		}
	}
	if got := w.cl.Clock(0); got < 2*sim.Millisecond {
		t.Errorf("clock %v after stalled broadcast, want at least the outage end 2ms", got)
	}

	// Deadline: the stall pushes the operation past entry+deadline and
	// the error reports exactly that detection time.
	_, _, errs = runFaultWorld(t, 2, "seed=0,linkdown=0-1@0ns+20ms,deadline=1ms", func(p *Proc) error {
		_, err := p.Bcast(0, []float64{7})
		return err
	})
	for r, err := range errs {
		var me *Error
		if !errors.As(err, &me) || me.Kind != ErrTimeout {
			t.Fatalf("rank %d: got %v, want ErrTimeout", r, err)
		}
		if me.Time != sim.Millisecond {
			t.Errorf("rank %d: Time = %v, want the detection time %v", r, me.Time, sim.Millisecond)
		}
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
