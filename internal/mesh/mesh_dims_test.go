package mesh

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"vbuscluster/internal/sim"
)

func testConfig3(dims []int, torus bool) Config {
	cfg := testConfig(0, 0)
	cfg.Geometry = Geometry{Dims: dims, Torus: torus}
	return cfg
}

func TestDimsValidation(t *testing.T) {
	eng := sim.NewEngine()
	if _, err := New(eng, testConfig3([]int{4, 0, 4}, false)); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("zero dimension: got %v, want ErrBadGeometry", err)
	}
	if _, err := New(eng, testConfig3([]int{4, -1}, false)); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("negative dimension: got %v, want ErrBadGeometry", err)
	}
	if _, err := New(eng, testConfig3(nil, false)); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("no dimensions: got %v, want ErrBadGeometry", err)
	}
	if err := (Geometry{Dims: []int{2, 2, 2}}).Check(9); !errors.Is(err, ErrGeometryMismatch) {
		t.Fatalf("9 nodes on 2x2x2: got %v, want ErrGeometryMismatch", err)
	}
	if err := (Geometry{Dims: []int{2, 2, 2}}).Check(8); err != nil {
		t.Fatalf("exact fit rejected: %v", err)
	}
}

// The classic 2-D view (Coord/NodeAt, compass directions) must agree
// with the N-dimensional geometry on a 2-D grid: Manhattan hops and
// the 2-D diameter.
func TestDims2DCompat(t *testing.T) {
	_, m := newMesh(t, 4, 3)
	if m.Nodes() != 12 || m.Diameter() != 5 {
		t.Fatalf("4x3 mesh: %d nodes, diameter %d; want 12, 5", m.Nodes(), m.Diameter())
	}
	for src := NodeID(0); int(src) < m.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < m.Nodes(); dst++ {
			sx, sy := m.Coord(src)
			dx, dy := m.Coord(dst)
			if want := max(sx-dx, dx-sx) + max(sy-dy, dy-sy); m.Hops(src, dst) != want {
				t.Fatalf("hops(%d,%d) = %d, Manhattan %d", src, dst, m.Hops(src, dst), want)
			}
		}
	}
}

func TestParseGeometry(t *testing.T) {
	for _, c := range []struct {
		in   string
		want []int
		bad  string // substring naming the bad dimension
	}{
		{in: "16x8x8", want: []int{16, 8, 8}},
		{in: "", bad: `dimension 0 "" is not a number`},
		{in: "4xq", bad: `dimension 1 "q" is not a number`},
		{in: "2x0", bad: "dimension 1 has size 0"},
		{in: "-1x4", bad: "dimension 0 has size -1"},
	} {
		g, err := ParseGeometry(c.in)
		if c.bad == "" {
			if err != nil || !slices.Equal(g.Dims, c.want) || g.Torus || g.String() != c.in {
				t.Errorf("ParseGeometry(%q) = %v %v, %v; want %v", c.in, g.Dims, g.Torus, err, c.want)
			}
			continue
		}
		if !errors.Is(err, ErrBadGeometry) || !strings.Contains(err.Error(), c.bad) {
			t.Errorf("ParseGeometry(%q) = %v, want ErrBadGeometry naming %q", c.in, err, c.bad)
		}
	}
}

func TestRoute3DTorus(t *testing.T) {
	eng := sim.NewEngine()
	m, err := New(eng, testConfig3([]int{4, 4, 4}, true))
	if err != nil {
		t.Fatal(err)
	}
	if m.Nodes() != 64 {
		t.Fatalf("nodes = %d, want 64", m.Nodes())
	}
	// Opposite corner (3,3,3) = node 63: one wrap hop per dimension.
	if h := m.Hops(0, 63); h != 3 {
		t.Fatalf("torus corner hops = %d, want 3", h)
	}
	if d := m.Diameter(); d != 6 {
		t.Fatalf("4x4x4 torus diameter = %d, want 6", d)
	}
	r := mustRoute(t, m, 0, 63)
	if len(r) != 5 {
		t.Fatalf("route length = %d, want 5 (inject + 3 + eject): %v", len(r), r)
	}
	if r[0].dir != Inject || r[4].dir != Eject {
		t.Fatalf("route endpoints wrong: %v", r)
	}
	// Dimension order: the X wrap first, then Y, then Z — each on the
	// negative ring (distance 1 backward vs 3 forward).
	if r[1].dir != West || r[2].dir != North || r[3].dir != dirFor(2, false) {
		t.Fatalf("route dirs = %v %v %v, want W N D2-", r[1].dir, r[2].dir, r[3].dir)
	}
	// Every cross-dateline hop must ride virtual channel 1.
	for _, k := range r[1:4] {
		if k.vc != 1 {
			t.Fatalf("dateline hop %v on vc %d, want 1", k, k.vc)
		}
	}
}

func TestRoute3DMeshDelivers(t *testing.T) {
	eng := sim.NewEngine()
	m, err := New(eng, testConfig3([]int{3, 3, 3}, false))
	if err != nil {
		t.Fatal(err)
	}
	var got sim.Time
	if err := m.Send(0, 26, 512, func(at sim.Time) { got = at }); err != nil {
		t.Fatal(err)
	}
	eng.Run()
	if got == 0 {
		t.Fatal("3D send never delivered")
	}
	if want := m.P2PTime(0, 26, 512); got != want {
		t.Fatalf("uncontended 3D delivery at %v, analytic %v", got, want)
	}
	if h := m.Hops(0, 26); h != 6 {
		t.Fatalf("corner hops = %d, want 6", h)
	}
}

// All-pairs traffic on a 3D torus must drain: the per-dimension
// dateline virtual channels keep the extended dimension-ordered
// routing deadlock-free.
func TestTorus3DAllPairsDrain(t *testing.T) {
	eng := sim.NewEngine()
	m, err := New(eng, testConfig3([]int{3, 3, 2}, true))
	if err != nil {
		t.Fatal(err)
	}
	want, got := 0, 0
	for src := NodeID(0); int(src) < m.Nodes(); src++ {
		for dst := NodeID(0); int(dst) < m.Nodes(); dst++ {
			if src == dst {
				continue
			}
			want++
			if err := m.Send(src, dst, 128, func(sim.Time) { got++ }); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	eng.Run()
	if got != want {
		t.Fatalf("delivered %d of %d messages", got, want)
	}
}

func TestRouteOutsideGeometryNamedError(t *testing.T) {
	eng := sim.NewEngine()
	m, err := New(eng, testConfig3([]int{2, 2, 2}, false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Route(0, 8); err == nil {
		t.Fatal("out-of-mesh destination accepted")
	}
}
