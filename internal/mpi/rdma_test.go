package mpi

import (
	"testing"

	"vbuscluster/internal/cluster"
	"vbuscluster/internal/interconnect"
	"vbuscluster/internal/lmad"
	"vbuscluster/internal/sim"
)

// rdmaRank0 builds a two-rank world on the rdma fabric and returns
// rank 0 (charge-only tests need no partner goroutine), the cluster,
// the protocol model and the 0->1 hop distance.
func rdmaRank0(t *testing.T) (*Proc, *cluster.Cluster, interconnect.ProtocolModel, int) {
	t.Helper()
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		t.Fatal(err)
	}
	cl, err := cluster.New(2, params)
	if err != nil {
		t.Fatal(err)
	}
	pm, ok := params.Fabric.(interconnect.ProtocolModel)
	if !ok {
		t.Fatal("rdma fabric does not implement interconnect.ProtocolModel")
	}
	return NewWorld(cl).Rank(0), cl, pm, cl.Hops(0, 1)
}

func chargeDesc(cl *cluster.Cluster, p *Proc, d AccessDesc) sim.Time {
	t0 := cl.Clock(0)
	Must(p.Charge(1, d, false))
	return cl.Clock(0) - t0
}

// Above the cold crossover the automatic protocol choice takes
// rendezvous; a repeat transfer from the same region must hit the
// registration cache and be charged exactly the warm model time.
func TestRdmaRepeatTransferWarmsCache(t *testing.T) {
	p, cl, pm, hops := rdmaRank0(t)
	elems := 2 * (pm.ProtocolCrossoverBytes(hops, 0) + WordBytes - 1) / WordBytes
	d := ContigDesc(0, elems)
	d.Region = "A"
	bytes := int(elems) * WordBytes
	if got, want := chargeDesc(cl, p, d), pm.RendezvousTime(bytes, hops, false); got != want {
		t.Fatalf("first transfer cost %v, want cold rendezvous %v", got, want)
	}
	if got, want := chargeDesc(cl, p, d), pm.RendezvousTime(bytes, hops, true); got != want {
		t.Fatalf("repeat transfer cost %v, want warm rendezvous %v", got, want)
	}
	st := cl.RegCache(0).Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("cache stats %+v, want exactly 1 hit and 1 miss", st)
	}
}

// A forced-eager transfer rides the bounce buffer and must not touch
// the registration cache: a later rendezvous from the same region still
// pays the cold registration.
func TestRdmaEagerDoesNotWarmCache(t *testing.T) {
	p, cl, pm, hops := rdmaRank0(t)
	const elems = 4096
	bytes := elems * WordBytes
	d := ContigDesc(0, elems)
	d.Region = "B"
	d.Proto = lmad.ProtoEager
	if got, want := chargeDesc(cl, p, d), pm.EagerTime(bytes, hops); got != want {
		t.Fatalf("forced eager cost %v, want %v", got, want)
	}
	if st := cl.RegCache(0).Stats(); st.Hits+st.Misses != 0 {
		t.Fatalf("eager transfer touched the registration cache: %+v", st)
	}
	d.Proto = lmad.ProtoRndv
	if got, want := chargeDesc(cl, p, d), pm.RendezvousTime(bytes, hops, false); got != want {
		t.Fatalf("rendezvous after eager cost %v, want cold %v (eager must not register)", got, want)
	}
}

// An anonymous transfer (no Region) can never be cached: every
// rendezvous stays cold, however often it repeats.
func TestRdmaAnonymousTransferStaysCold(t *testing.T) {
	p, cl, pm, hops := rdmaRank0(t)
	elems := 2 * (pm.ProtocolCrossoverBytes(hops, 0) + WordBytes - 1) / WordBytes
	d := ContigDesc(0, elems)
	bytes := int(elems) * WordBytes
	cold := pm.RendezvousTime(bytes, hops, false)
	for i := 0; i < 3; i++ {
		if got := chargeDesc(cl, p, d); got != cold {
			t.Fatalf("anonymous transfer %d cost %v, want cold rendezvous %v", i, got, cold)
		}
	}
}

// Below the warm crossover the automatic choice must take eager even
// when the region is already registered.
func TestRdmaSmallTransferStaysEager(t *testing.T) {
	p, cl, pm, hops := rdmaRank0(t)
	elems := pm.ProtocolCrossoverBytes(hops, 1) / (2 * WordBytes)
	if elems < 1 {
		elems = 1
	}
	d := ContigDesc(0, elems)
	d.Region = "C"
	// Register the region first with a forced rendezvous.
	d.Proto = lmad.ProtoRndv
	chargeDesc(cl, p, d)
	d.Proto = lmad.ProtoAuto
	bytes := int(elems) * WordBytes
	if got, want := chargeDesc(cl, p, d), pm.EagerTime(bytes, hops); got != want {
		t.Fatalf("small registered transfer cost %v, want eager %v", got, want)
	}
}

// Two-sided sends on a protocol fabric ride the same eager/rendezvous
// switch as one-sided transfers (anonymous, so always cold), while the
// classic cards keep their SendSetup+ContigTime pricing.
func TestRdmaSendUsesProtocolPath(t *testing.T) {
	params, err := cluster.ParamsForFabric("rdma")
	if err != nil {
		t.Fatal(err)
	}
	pm := params.Fabric.(interconnect.ProtocolModel)
	hops := params.Geometry().Hops(0, 1)
	for _, elems := range []int{8, 8192} {
		var cost sim.Time
		runWorldParams(t, 2, params, func(p *Proc) {
			if p.Rank() == 0 {
				t0 := p.w.cl.Clock(0)
				Must(p.Send(1, 0, make([]float64, elems)))
				cost = p.w.cl.Clock(0) - t0
			} else {
				must(p.Recv(0, 0))
			}
		})
		bytes := elems * WordBytes
		want := pm.EagerTime(bytes, hops)
		if r := pm.RendezvousTime(bytes, hops, false); r < want {
			want = r
		}
		if cost != want {
			t.Errorf("%d-elem send cost %v, want protocol-priced %v", elems, cost, want)
		}
	}
}

// runWorldParams is runWorld with an explicit machine model.
func runWorldParams(t *testing.T, n int, params cluster.Params, body func(p *Proc)) {
	t.Helper()
	cl, err := cluster.New(n, params)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(cl)
	done := make(chan struct{})
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer func() { done <- struct{}{} }()
			body(w.Rank(rank))
		}(r)
	}
	for r := 0; r < n; r++ {
		<-done
	}
}
