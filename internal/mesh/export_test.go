package mesh

// RouteNodes lists the nodes a flit route from src to dst visits, in
// order with both endpoints: the source, then the far end of every
// inter-router channel the route acquires.
func (m *Mesh) RouteNodes(src, dst NodeID) ([]NodeID, error) {
	route, err := m.Route(src, dst)
	if err != nil {
		return nil, err
	}
	nodes := []NodeID{src}
	for _, k := range route {
		if _, b, ok := m.linkEnds(k); ok {
			nodes = append(nodes, b)
		}
	}
	return nodes, nil
}
