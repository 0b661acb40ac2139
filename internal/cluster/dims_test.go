package cluster

import (
	"errors"
	"testing"

	"vbuscluster/internal/mesh"
)

func TestNewRejectsBadGeometry(t *testing.T) {
	p := DefaultParams()
	p.MeshDims = []int{4, 0, 4}
	if _, err := New(4, p); !errors.Is(err, mesh.ErrBadGeometry) {
		t.Fatalf("zero dimension: got %v, want mesh.ErrBadGeometry", err)
	}
	p = DefaultParams()
	p.MeshDims = []int{2, 2, 2}
	if _, err := New(9, p); !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("9 ranks on 8 nodes: got %v, want mesh.ErrGeometryMismatch", err)
	}
	p = DefaultParams()
	p.MeshWidth, p.MeshHeight = 2, 2
	if _, err := New(5, p); !errors.Is(err, mesh.ErrGeometryMismatch) {
		t.Fatalf("5 ranks on 2x2: got %v, want mesh.ErrGeometryMismatch", err)
	}
	p = DefaultParams()
	p.MeshDims = []int{2, 2, 2}
	if _, err := New(8, p); err != nil {
		t.Fatalf("exact-fit 3D geometry rejected: %v", err)
	}
}

func TestHops3DTorus(t *testing.T) {
	p := DefaultParams()
	p.MeshDims = []int{4, 4, 4}
	if h := p.Geometry().Hops(0, 63); h != 9 {
		t.Fatalf("3D mesh corner hops = %d, want 9", h)
	}
	p.Torus = true
	g := p.Geometry()
	if h := g.Hops(0, 63); h != 3 {
		t.Fatalf("3D torus corner hops = %d, want 3", h)
	}
	// Path agrees with Hops on every pair, endpoints included.
	for a := 0; a < 64; a += 7 {
		for b := 0; b < 64; b += 5 {
			if got, want := len(g.Path(a, b)), g.Hops(a, b)+1; got != want {
				t.Fatalf("path(%d,%d) has %d nodes, want %d", a, b, got, want)
			}
		}
	}
}

// The N-dim Hops must reproduce the legacy 2D arithmetic exactly when
// the geometry is 2D — the runtime's charging depends on it.
func TestHops2DCompat(t *testing.T) {
	p := DefaultParams()
	p.MeshWidth, p.MeshHeight = 4, 3
	legacy := func(a, b int) int {
		ax, ay := a%4, a/4
		bx, by := b%4, b/4
		dx, dy := ax-bx, ay-by
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		return dx + dy
	}
	for a := 0; a < 12; a++ {
		for b := 0; b < 12; b++ {
			if got, want := p.Geometry().Hops(a, b), legacy(a, b); got != want {
				t.Fatalf("hops(%d,%d) = %d, legacy %d", a, b, got, want)
			}
		}
	}
}

// Cluster.Hops runs on every charged transfer: it must not allocate,
// on a 2-D mesh or on a 3-D torus.
func TestHopsAllocationFree(t *testing.T) {
	mesh2D := DefaultParams()
	mesh2D.MeshWidth, mesh2D.MeshHeight = 4, 4
	torus3D := DefaultParams()
	torus3D.MeshDims, torus3D.Torus = []int{4, 4, 4}, true
	for _, p := range []Params{mesh2D, torus3D} {
		c, err := New(16, p)
		if err != nil {
			t.Fatal(err)
		}
		hops := 0
		if allocs := testing.AllocsPerRun(100, func() { hops += c.Hops(1, 14) }); allocs != 0 {
			t.Errorf("%s torus=%v: Hops allocates %v times per call", c.Geometry(), p.Torus, allocs)
		}
	}
}

// Cluster.Hops sums legs over coordinates stored at construction: it
// must agree with the geometry's walk for every pair of nodes, and
// fall back to the walk for a node beyond the cluster.
func TestHopsFromStoredCoords(t *testing.T) {
	torus3D := DefaultParams()
	torus3D.MeshDims, torus3D.Torus = []int{4, 2, 3}, true
	mesh2D := DefaultParams()
	mesh2D.MeshWidth, mesh2D.MeshHeight = 5, 3
	for _, p := range []Params{torus3D, mesh2D} {
		c, err := New(13, p)
		if err != nil {
			t.Fatal(err)
		}
		g := c.Geometry()
		for a := 0; a < g.Nodes(); a++ {
			for b := 0; b < g.Nodes(); b++ {
				if got, want := c.Hops(a, b), g.Hops(a, b); got != want {
					t.Fatalf("%s torus=%v: Hops(%d,%d) = %d, walk %d", g, p.Torus, a, b, got, want)
				}
			}
		}
	}
}
