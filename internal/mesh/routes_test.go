package mesh_test

import (
	"slices"
	"testing"

	"vbuscluster/internal/mesh"
	"vbuscluster/internal/nic"
	"vbuscluster/internal/sim"
)

// geometryConfig is the V-Bus card's channel physics on an arbitrary
// grid.
func geometryConfig(t *testing.T, g mesh.Geometry) mesh.Config {
	t.Helper()
	card, err := nic.NewVBus(nic.DefaultVBusConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := card.MeshConfig(0, 0)
	cfg.Geometry = g
	return cfg
}

// neighbours lists the nodes linked to n: its ±1 neighbour in every
// dimension, wrapping around on a torus.
func neighbours(dims []int, torus bool, n int) []int {
	var out []int
	stride := 1
	for _, size := range dims {
		c := n / stride % size
		for _, step := range []int{-1, 1} {
			nc := c + step
			if torus {
				nc = (nc + size) % size
			} else if nc < 0 || nc >= size {
				continue
			}
			out = append(out, n+(nc-c)*stride)
		}
		stride *= size
	}
	return out
}

// bfsHops is the shortest-path hop count from src to every node over
// the explicit link graph.
func bfsHops(dims []int, torus bool, src int) []int {
	n := 1
	for _, d := range dims {
		n *= d
	}
	dist := make([]int, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, next := range neighbours(dims, torus, cur) {
			if dist[next] < 0 {
				dist[next] = dist[cur] + 1
				queue = append(queue, next)
			}
		}
	}
	return dist
}

// TestRoutesAgree: on every node pair of a dozen meshes and tori, the
// geometry's path is a shortest walk over the explicit link graph, the
// flit simulator's route visits exactly its nodes, and both hop counts
// are the shortest-path distance.
func TestRoutesAgree(t *testing.T) {
	geometries := []mesh.Geometry{
		{Dims: []int{1, 1}}, {Dims: []int{4, 1}}, {Dims: []int{2, 2}},
		{Dims: []int{4, 4}}, {Dims: []int{5, 3}}, {Dims: []int{4, 3, 2}},
		{Dims: []int{2, 2}, Torus: true}, {Dims: []int{3, 3}, Torus: true},
		{Dims: []int{4, 4}, Torus: true}, {Dims: []int{5, 4}, Torus: true},
		{Dims: []int{4, 4, 4}, Torus: true}, {Dims: []int{6, 5, 3}, Torus: true},
	}
	pairs := 0
	for _, g := range geometries {
		m, err := mesh.New(sim.NewEngine(), geometryConfig(t, g))
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < g.Nodes(); a++ {
			dist := bfsHops(g.Dims, g.Torus, a)
			for b := 0; b < g.Nodes(); b++ {
				pairs++
				path := g.Path(a, b)
				nodes, err := m.RouteNodes(mesh.NodeID(a), mesh.NodeID(b))
				if err != nil {
					t.Fatal(err)
				}
				if len(nodes) != len(path) {
					t.Fatalf("%v torus=%v %d->%d: route %v, path %v", g.Dims, g.Torus, a, b, nodes, path)
				}
				for i := range path {
					if int(nodes[i]) != path[i] {
						t.Fatalf("%v torus=%v %d->%d: route %v, path %v", g.Dims, g.Torus, a, b, nodes, path)
					}
					if i > 0 && !slices.Contains(neighbours(g.Dims, g.Torus, path[i-1]), path[i]) {
						t.Fatalf("%v torus=%v %d->%d: path %v steps off the links", g.Dims, g.Torus, a, b, path)
					}
				}
				if h, mh := g.Hops(a, b), m.Hops(mesh.NodeID(a), mesh.NodeID(b)); h != dist[b] || mh != dist[b] || len(path) != dist[b]+1 {
					t.Fatalf("%v torus=%v %d->%d: hops %d (geometry) %d (simulator), path %d nodes, shortest %d",
						g.Dims, g.Torus, a, b, h, mh, len(path), dist[b])
				}
			}
		}
	}
	if pairs != 14039 {
		t.Fatalf("checked %d pairs, want 14039", pairs)
	}
}
