package mesh

import (
	"fmt"
	"strconv"
	"strings"
)

// Geometry is the grid the cluster's nodes sit on, numbered row-major
// (dimension 0 varies fastest). It is the one owner of the grid: the
// cost model's hop counts and link-outage paths and the flit
// simulator's channel routes all come from its dimension-ordered walk.
// A hypercube is the binary grid [2, 2, ..., 2].
type Geometry struct {
	// Dims are the grid's sizes, e.g. [16, 8, 8] for the 1024-node
	// 3-D torus an APEnet-style fabric uses.
	Dims []int
	// Torus adds wrap-around links in every dimension (the paper lists
	// "mesh, torus and hypercube" as the switched networks the V-Bus
	// design targets).
	Torus bool
}

// ParseGeometry parses a grid written as its sizes joined by "x", e.g.
// "16x8x8". Anything else fails with ErrBadGeometry, naming the bad
// dimension.
func ParseGeometry(s string) (Geometry, error) {
	parts := strings.Split(s, "x")
	g := Geometry{Dims: make([]int, len(parts))}
	for i, p := range parts {
		d, err := strconv.Atoi(p)
		if err != nil {
			return Geometry{}, fmt.Errorf("%w %q: dimension %d %q is not a number", ErrBadGeometry, s, i, p)
		}
		g.Dims[i] = d
	}
	if err := g.Check(1); err != nil {
		return Geometry{}, err
	}
	return g, nil
}

// String renders the grid's sizes as "16x8x8".
func (g Geometry) String() string {
	parts := make([]string, len(g.Dims))
	for i, d := range g.Dims {
		parts[i] = strconv.Itoa(d)
	}
	return strings.Join(parts, "x")
}

// Nodes is the grid's node count.
func (g Geometry) Nodes() int {
	n := 1
	for _, d := range g.Dims {
		n *= d
	}
	return n
}

// Check validates the grid for a population of nodes: no dimensions or
// a dimension below 1 fails with ErrBadGeometry, fewer than nodes grid
// points with ErrGeometryMismatch.
func (g Geometry) Check(nodes int) error {
	if len(g.Dims) == 0 {
		return fmt.Errorf("%w: no dimensions", ErrBadGeometry)
	}
	for i, d := range g.Dims {
		if d < 1 {
			return fmt.Errorf("%w %s: dimension %d has size %d", ErrBadGeometry, g, i, d)
		}
	}
	if n := g.Nodes(); n < nodes {
		return fmt.Errorf("%w: %s holds %d nodes, fewer than %d", ErrGeometryMismatch, g, n, nodes)
	}
	return nil
}

// leg is the walk's rule in one dimension of size size: the hop count
// and direction from coordinate from to coordinate to — straight there
// on a mesh, the shorter way round on a torus, ties going positive.
func (g Geometry) leg(from, to, size int) (steps int, fwd bool) {
	if g.Torus {
		f := (to - from + size) % size
		if size-f < f {
			return size - f, false
		}
		return f, true
	}
	if to < from {
		return from - to, false
	}
	return to - from, true
}

// step is the node one hop from n along dimension d, wrapping around
// the grid's edge (which only a torus route crosses).
func (g Geometry) step(n, d int, fwd bool) int {
	stride := 1
	for _, size := range g.Dims[:d] {
		stride *= size
	}
	size := g.Dims[d]
	c := n / stride % size
	next := (c + 1) % size
	if !fwd {
		next = (c + size - 1) % size
	}
	return n + (next-c)*stride
}

// walk is the grid's one routing rule: the dimension-ordered route from
// node a to node b corrects dimension 0 first, then 1, and so on, each
// by leg. hop is called for every hop with the nodes it connects, its
// dimension and direction, and whether the route has crossed that
// dimension's wrap-around link (its dateline) by the end of the hop.
func (g Geometry) walk(a, b int, hop func(from, to, d int, fwd, wrapped bool)) {
	stride := 1
	for d, size := range g.Dims {
		c := a / stride % size
		steps, fwd := g.leg(c, b/stride%size, size)
		wrapped := false
		for ; steps > 0; steps-- {
			wrapped = wrapped || (fwd && c == size-1) || (!fwd && c == 0)
			next := g.step(a, d, fwd)
			hop(a, next, d, fwd, wrapped)
			a, c = next, next/stride%size
		}
		stride *= size
	}
}

// Hops is the length of the walk from node a to node b. It allocates
// nothing: the runtime calls it on every transfer it charges.
func (g Geometry) Hops(a, b int) int {
	n, stride := 0, 1
	for _, size := range g.Dims {
		steps, _ := g.leg(a/stride%size, b/stride%size, size)
		n += steps
		stride *= size
	}
	return n
}

// Coords holds the coordinates of a grid's first nodes, laid out once
// so that a hop count between two of them divides nothing.
type Coords struct {
	g Geometry
	n int
	c []int // node i's coordinates at [i·len(Dims), (i+1)·len(Dims))
}

// Coords lays out the coordinates of nodes 0…n-1.
func (g Geometry) Coords(n int) Coords {
	k := len(g.Dims)
	c := make([]int, n*k)
	for i := range n {
		stride := 1
		for d, size := range g.Dims {
			c[i*k+d] = i / stride % size
			stride *= size
		}
	}
	return Coords{g, n, c}
}

// Hops is Geometry.Hops, summing each dimension's leg over the stored
// coordinates; a node beyond them is walked from its number.
func (cs Coords) Hops(a, b int) int {
	if uint(a) >= uint(cs.n) || uint(b) >= uint(cs.n) {
		return cs.g.Hops(a, b)
	}
	k := len(cs.g.Dims)
	ca, cb := cs.c[a*k:(a+1)*k], cs.c[b*k:(b+1)*k]
	n := 0
	for d, size := range cs.g.Dims {
		steps, _ := cs.g.leg(ca[d], cb[d], size)
		n += steps
	}
	return n
}

// Path lists the nodes the walk from node a to node b visits, both
// endpoints included. Injected link outages are resolved against it.
func (g Geometry) Path(a, b int) []int {
	path := []int{a}
	g.walk(a, b, func(_, to, _ int, _, _ bool) { path = append(path, to) })
	return path
}

// Diameter is the longest walk between any two nodes.
func (g Geometry) Diameter() int {
	n := 0
	for _, size := range g.Dims {
		if g.Torus {
			n += size / 2
		} else {
			n += size - 1
		}
	}
	return n
}
