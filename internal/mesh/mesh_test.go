package mesh

import (
	"testing"
	"testing/quick"

	"vbuscluster/internal/fabric"
	"vbuscluster/internal/sim"
)

func testConfig(w, h int) Config {
	return Config{
		Geometry:       Geometry{Dims: []int{w, h}},
		LinkMode:       fabric.SKWP,
		Lines:          fabric.NewLineSet(32, 40*sim.Nanosecond, 4*sim.Nanosecond, 1),
		Margin:         2 * sim.Nanosecond,
		Sampler:        fabric.SkewSampler{Resolution: 8 * sim.Nanosecond},
		RouterLatency:  60 * sim.Nanosecond,
		BusArbitration: 200 * sim.Nanosecond,
	}
}

func newMesh(t *testing.T, w, h int) (*sim.Engine, *Mesh) {
	t.Helper()
	eng := sim.NewEngine()
	m, err := New(eng, testConfig(w, h))
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func mustRoute(t *testing.T, m *Mesh, src, dst NodeID) []chanKey {
	t.Helper()
	r, err := m.Route(src, dst)
	if err != nil {
		t.Fatalf("Route(%d,%d): %v", src, dst, err)
	}
	return r
}

func TestValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, Config{Geometry: Geometry{Dims: []int{0, 2}}}); err == nil {
		t.Fatal("zero width accepted")
	}
	cfg := testConfig(2, 2)
	cfg.RouterLatency = -1
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("negative router latency accepted")
	}
	cfg = testConfig(2, 2)
	cfg.Lines = fabric.LineSet{}
	if _, err := New(eng, cfg); err == nil {
		t.Fatal("empty line set accepted")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	_, m := newMesh(t, 4, 3)
	for n := NodeID(0); int(n) < m.Nodes(); n++ {
		x, y := m.Coord(n)
		if m.NodeAt(x, y) != n {
			t.Fatalf("coord round trip failed for node %d", n)
		}
	}
}

func TestXYRouteShape(t *testing.T) {
	_, m := newMesh(t, 4, 4)
	r := mustRoute(t, m, m.NodeAt(0, 0), m.NodeAt(3, 2))
	// inject + 3 east + 2 south + eject
	if len(r) != 7 {
		t.Fatalf("route length = %d, want 7: %v", len(r), r)
	}
	if r[0].dir != Inject || r[len(r)-1].dir != Eject {
		t.Fatalf("route endpoints wrong: %v", r)
	}
	for i := 1; i <= 3; i++ {
		if r[i].dir != East {
			t.Fatalf("hop %d = %v, want E", i, r[i].dir)
		}
	}
	for i := 4; i <= 5; i++ {
		if r[i].dir != South {
			t.Fatalf("hop %d = %v, want S", i, r[i].dir)
		}
	}
}

func TestRouteWestNorth(t *testing.T) {
	_, m := newMesh(t, 3, 3)
	r := mustRoute(t, m, m.NodeAt(2, 2), m.NodeAt(0, 0))
	if len(r) != 6 {
		t.Fatalf("route length = %d, want 6", len(r))
	}
	if r[1].dir != West || r[2].dir != West || r[3].dir != North || r[4].dir != North {
		t.Fatalf("route = %v", r)
	}
}

func TestHopsAndDiameter(t *testing.T) {
	_, m := newMesh(t, 4, 4)
	if m.Hops(0, 0) != 0 {
		t.Fatal("self hops != 0")
	}
	if h := m.Hops(m.NodeAt(0, 0), m.NodeAt(3, 3)); h != 6 {
		t.Fatalf("corner-to-corner hops = %d, want 6", h)
	}
	if m.Diameter() != 6 {
		t.Fatalf("diameter = %d, want 6", m.Diameter())
	}
}

func TestSelfSendDelivers(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	var at sim.Time
	m.Send(0, 0, 64, func(t sim.Time) { at = t })
	eng.Run()
	if at == 0 {
		t.Fatal("self send never delivered")
	}
}

func TestSingleMessageLatencyMatchesAnalytic(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	var got sim.Time
	m.Send(0, 3, 1024, func(t sim.Time) { got = t })
	eng.Run()
	want := m.P2PTime(0, 3, 1024)
	if got != want {
		t.Fatalf("uncontended delivery at %v, analytic %v", got, want)
	}
}

func TestFlitsFor(t *testing.T) {
	_, m := newMesh(t, 2, 2)
	bpf := m.BytesPerFlit()
	if bpf != 4 {
		t.Fatalf("bytes/flit = %d, want 4 for 32-line links", bpf)
	}
	if m.FlitsFor(0) != 1 {
		t.Fatal("empty payload should still need a head flit")
	}
	if m.FlitsFor(1) != 1 || m.FlitsFor(4) != 1 || m.FlitsFor(5) != 2 {
		t.Fatal("flit rounding wrong")
	}
}

func TestLargerMessagesTakeLonger(t *testing.T) {
	var prev sim.Time
	for _, bytes := range []int{16, 256, 4096, 65536} {
		eng, m := newMesh(t, 2, 2)
		var at sim.Time
		m.Send(0, 3, bytes, func(t sim.Time) { at = t })
		eng.Run()
		if at <= prev {
			t.Fatalf("delivery time for %dB (%v) not greater than smaller message (%v)", bytes, at, prev)
		}
		prev = at
	}
}

func TestContentionSerializes(t *testing.T) {
	// Two messages sharing the full route must serialize on the links.
	eng, m := newMesh(t, 4, 1)
	var first, second sim.Time
	m.Send(0, 3, 4096, func(t sim.Time) { first = t })
	m.Send(0, 3, 4096, func(t sim.Time) { second = t })
	eng.Run()
	if second <= first {
		t.Fatalf("contended messages did not serialize: %v then %v", first, second)
	}
	solo := m.P2PTime(0, 3, 4096)
	if second < solo*2-solo/2 {
		t.Fatalf("second message finished too early under contention: %v vs solo %v", second, solo)
	}
	if m.Stats().BlockedAcquires == 0 {
		t.Fatal("expected blocked acquisitions under contention")
	}
}

func TestDisjointRoutesDoNotInterfere(t *testing.T) {
	eng, m := newMesh(t, 4, 2)
	var a, b sim.Time
	// Row 0 west→east and row 1 west→east use disjoint channels.
	m.Send(m.NodeAt(0, 0), m.NodeAt(3, 0), 4096, func(t sim.Time) { a = t })
	m.Send(m.NodeAt(0, 1), m.NodeAt(3, 1), 4096, func(t sim.Time) { b = t })
	eng.Run()
	if a != b {
		t.Fatalf("disjoint transfers should complete simultaneously: %v vs %v", a, b)
	}
}

func TestAllPairsDeliver(t *testing.T) {
	eng, m := newMesh(t, 3, 3)
	want := 0
	for s := NodeID(0); int(s) < m.Nodes(); s++ {
		for d := NodeID(0); int(d) < m.Nodes(); d++ {
			if s == d {
				continue
			}
			m.Send(s, d, 128, nil)
			want++
		}
	}
	eng.Run()
	if got := m.Stats().MessagesDelivered; got != want {
		t.Fatalf("delivered %d of %d messages", got, want)
	}
}

func TestBroadcastDelivers(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	var at sim.Time
	m.Broadcast(0, 1024, func(t sim.Time) { at = t })
	eng.Run()
	if at != m.BroadcastTime(1024) {
		t.Fatalf("broadcast done at %v, analytic %v", at, m.BroadcastTime(1024))
	}
	if m.Stats().BroadcastsDone != 1 {
		t.Fatal("broadcast not recorded")
	}
}

// The headline V-Bus property: broadcasting over the virtual bus beats a
// software binomial tree of point-to-point messages.
func TestVBusBroadcastBeatsP2PTree(t *testing.T) {
	bytes := 4096
	eng, m := newMesh(t, 4, 4)
	var busDone sim.Time
	m.Broadcast(0, bytes, func(t sim.Time) { busDone = t })
	eng.Run()

	// Software broadcast: binomial tree, stage s doubles the holders.
	eng2, m2 := newMesh(t, 4, 4)
	var treeDone sim.Time
	holders := []NodeID{0}
	var stage func()
	next := 1
	stage = func() {
		if next >= m2.Nodes() {
			treeDone = eng2.Now()
			return
		}
		pending := 0
		var newHolders []NodeID
		for _, h := range holders {
			if next >= m2.Nodes() {
				break
			}
			dst := NodeID(next)
			next++
			pending++
			newHolders = append(newHolders, dst)
			m2.Send(h, dst, bytes, func(sim.Time) {
				pending--
				if pending == 0 {
					stage()
				}
			})
		}
		holders = append(holders, newHolders...)
	}
	stage()
	eng2.Run()

	if treeDone == 0 {
		t.Fatal("software tree broadcast never completed")
	}
	if busDone >= treeDone {
		t.Fatalf("V-Bus broadcast (%v) should beat p2p tree (%v)", busDone, treeDone)
	}
}

// "If an urgent message occurs, it can intervene on-going point-to-point
// communication": a broadcast freezes in-flight p2p traffic, which
// resumes afterwards and still delivers.
func TestBroadcastFreezesP2P(t *testing.T) {
	eng, m := newMesh(t, 4, 1)
	var p2pAt sim.Time
	m.Send(0, 3, 1<<16, func(t sim.Time) { p2pAt = t })
	// Issue the broadcast shortly after the p2p starts.
	eng.After(1*sim.Microsecond, func() { m.Broadcast(1, 1<<16, nil) })
	eng.Run()
	if p2pAt == 0 {
		t.Fatal("frozen p2p message never resumed")
	}
	solo := m.P2PTime(0, 3, 1<<16)
	if p2pAt <= solo {
		t.Fatalf("p2p unaffected by broadcast freeze: %v vs solo %v", p2pAt, solo)
	}
	if m.Stats().FrozenByBus == 0 {
		t.Fatal("freeze counter not incremented")
	}
}

func TestBackToBackBroadcastsSerialize(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	var first, second sim.Time
	m.Broadcast(0, 4096, func(t sim.Time) { first = t })
	m.Broadcast(1, 4096, func(t sim.Time) { second = t })
	eng.Run()
	if second <= first {
		t.Fatalf("broadcasts must serialize on the bus: %v, %v", first, second)
	}
}

func TestStatsAccounting(t *testing.T) {
	eng, m := newMesh(t, 2, 2)
	m.Send(0, 1, 100, nil)
	m.Send(1, 2, 100, nil)
	eng.Run()
	st := m.Stats()
	if st.MessagesDelivered != 2 {
		t.Fatalf("delivered = %d", st.MessagesDelivered)
	}
	if st.DeliveredByDst[1] != 1 || st.DeliveredByDst[2] != 1 {
		t.Fatalf("per-dst counts wrong: %v", st.DeliveredByDst)
	}
	if st.TotalLatency <= 0 || st.MaxLatency <= 0 {
		t.Fatal("latency stats not recorded")
	}
	if st.FlitsDelivered != int64(2*m.FlitsFor(100)) {
		t.Fatalf("flits delivered = %d", st.FlitsDelivered)
	}
}

// Property: every message injected into a random mesh with random
// traffic is eventually delivered (no deadlock, no loss) — XY routing's
// deadlock freedom carries over to the hold-based model.
func TestRandomTrafficAlwaysDelivers(t *testing.T) {
	f := func(seed int64, wRaw, hRaw, nRaw uint8) bool {
		w := int(wRaw%4) + 1
		h := int(hRaw%4) + 1
		n := int(nRaw%40) + 1
		eng := sim.NewEngine()
		m, err := New(eng, testConfig(w, h))
		if err != nil {
			return false
		}
		rng := seed
		rand := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(mod))
			if v < 0 {
				v += mod
			}
			return v
		}
		for i := 0; i < n; i++ {
			src := NodeID(rand(m.Nodes()))
			dst := NodeID(rand(m.Nodes()))
			bytes := rand(8192)
			delay := sim.Time(rand(1000)) * sim.Nanosecond
			eng.After(delay, func() { m.Send(src, dst, bytes, nil) })
		}
		eng.Run()
		return m.Stats().MessagesDelivered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestP2PTimeGrowsWithDistance(t *testing.T) {
	_, m := newMesh(t, 4, 4)
	near := m.P2PTime(0, 1, 1024)
	far := m.P2PTime(0, 15, 1024)
	if far <= near {
		t.Fatalf("far transfer (%v) not slower than near (%v)", far, near)
	}
}

func newTorus(t *testing.T, w, h int) (*sim.Engine, *Mesh) {
	t.Helper()
	eng := sim.NewEngine()
	cfg := testConfig(w, h)
	cfg.Geometry.Torus = true
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestTorusWrapRoutesShorter(t *testing.T) {
	_, mesh4 := newMesh(t, 4, 4)
	_, torus4 := newTorus(t, 4, 4)
	// Corner to corner: mesh 6 hops; torus wraps in 2.
	if mesh4.Hops(0, 15) != 6 {
		t.Fatalf("mesh hops = %d", mesh4.Hops(0, 15))
	}
	if torus4.Hops(0, 15) != 2 {
		t.Fatalf("torus hops = %d, want 2 via wrap", torus4.Hops(0, 15))
	}
	if torus4.Diameter() != 4 {
		t.Fatalf("torus diameter = %d", torus4.Diameter())
	}
}

func TestTorusRouteLengthMatchesHops(t *testing.T) {
	_, m := newTorus(t, 5, 3)
	for s := NodeID(0); int(s) < m.Nodes(); s++ {
		for d := NodeID(0); int(d) < m.Nodes(); d++ {
			r := mustRoute(t, m, s, d)
			if len(r) != m.Hops(s, d)+2 {
				t.Fatalf("route %d->%d has %d entries, hops %d", s, d, len(r), m.Hops(s, d))
			}
		}
	}
}

func TestTorusAllPairsDeliver(t *testing.T) {
	eng, m := newTorus(t, 3, 3)
	want := 0
	for s := NodeID(0); int(s) < m.Nodes(); s++ {
		for d := NodeID(0); int(d) < m.Nodes(); d++ {
			if s == d {
				continue
			}
			m.Send(s, d, 256, nil)
			want++
		}
	}
	eng.Run()
	if got := m.Stats().MessagesDelivered; got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
}

func TestTorusFasterCornerTransfer(t *testing.T) {
	engM, mm := newMesh(t, 4, 4)
	var meshT sim.Time
	mm.Send(0, 15, 4096, func(ts sim.Time) { meshT = ts })
	engM.Run()
	engT, tt := newTorus(t, 4, 4)
	var torusT sim.Time
	tt.Send(0, 15, 4096, func(ts sim.Time) { torusT = ts })
	engT.Run()
	if torusT >= meshT {
		t.Fatalf("torus corner transfer (%v) should beat mesh (%v)", torusT, meshT)
	}
}

// newBinaryCube builds the binary n-cube on nodes (a power of two)
// nodes: the grid [2, 2, ..., 2].
func newBinaryCube(t *testing.T, nodes int) (*sim.Engine, *Mesh) {
	t.Helper()
	var dims []int
	for n := 1; n < nodes; n *= 2 {
		dims = append(dims, 2)
	}
	eng := sim.NewEngine()
	cfg := testConfig(0, 0)
	cfg.Geometry.Dims = dims
	m, err := New(eng, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, m
}

func TestHypercubeHopsAndDiameter(t *testing.T) {
	_, m := newBinaryCube(t, 16)
	if m.Diameter() != 4 {
		t.Fatalf("diameter = %d, want 4", m.Diameter())
	}
	if m.Hops(0, 15) != 4 || m.Hops(0, 1) != 1 || m.Hops(5, 5) != 0 {
		t.Fatalf("hops wrong: %d %d %d", m.Hops(0, 15), m.Hops(0, 1), m.Hops(5, 5))
	}
}

func TestHypercubeRouteLengthMatchesHops(t *testing.T) {
	_, m := newBinaryCube(t, 8)
	for s := NodeID(0); int(s) < m.Nodes(); s++ {
		for d := NodeID(0); int(d) < m.Nodes(); d++ {
			if len(mustRoute(t, m, s, d)) != m.Hops(s, d)+2 {
				t.Fatalf("route %d->%d length mismatch", s, d)
			}
		}
	}
}

func TestHypercubeAllPairsDeliver(t *testing.T) {
	eng, m := newBinaryCube(t, 8)
	want := 0
	for s := NodeID(0); int(s) < m.Nodes(); s++ {
		for d := NodeID(0); int(d) < m.Nodes(); d++ {
			if s == d {
				continue
			}
			m.Send(s, d, 512, nil)
			want++
		}
	}
	eng.Run()
	if got := m.Stats().MessagesDelivered; got != want {
		t.Fatalf("delivered %d of %d", got, want)
	}
}

func TestHypercubeRandomStressNoDeadlock(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		eng, m := newBinaryCube(t, 16)
		rng := seed
		rand := func(mod int) int {
			rng = rng*6364136223846793005 + 1442695040888963407
			v := int((rng >> 33) % int64(mod))
			if v < 0 {
				v += mod
			}
			return v
		}
		n := 50
		for i := 0; i < n; i++ {
			m.Send(NodeID(rand(16)), NodeID(rand(16)), rand(4096), nil)
		}
		eng.Run()
		if got := m.Stats().MessagesDelivered; got != n {
			t.Fatalf("seed %d: delivered %d of %d (deadlock?)", seed, got, n)
		}
	}
}

func TestHypercubeShorterThanMeshCorner(t *testing.T) {
	_, mm := newMesh(t, 4, 4)
	_, hc := newBinaryCube(t, 16)
	if hc.Hops(0, 15) >= mm.Hops(0, 15) {
		t.Fatalf("hypercube corner hops %d should beat mesh %d", hc.Hops(0, 15), mm.Hops(0, 15))
	}
}
