package graph

// ConnectedComponents labels the connected components of g (treating arcs
// as undirected) and returns the label of each vertex (labels are dense,
// starting at 0 in order of discovery) together with the number of
// components.
func (g *Graph) ConnectedComponents() (labels []int64, count int64) {
	labels = make([]int64, g.n)
	for i := range labels {
		labels[i] = -1
	}
	var queue []int64
	for s := int64(0); s < g.n; s++ {
		if labels[s] != -1 {
			continue
		}
		labels[s] = count
		queue = append(queue[:0], s)
		for len(queue) > 0 {
			v := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			for _, w := range g.Neighbors(v) {
				if labels[w] == -1 {
					labels[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
	}
	return labels, count
}

// LargestComponent returns the subgraph induced by the largest connected
// component (ties broken by smallest label), with vertices relabeled, and
// the old-label mapping. Mirrors the paper's gnutella preprocessing.
func (g *Graph) LargestComponent() (*Graph, []int64) {
	labels, count := g.ConnectedComponents()
	if count == 0 {
		return &Graph{offsets: []int64{0}}, nil
	}
	sizes := make([]int64, count)
	for _, l := range labels {
		sizes[l]++
	}
	best := int64(0)
	for l := int64(1); l < count; l++ {
		if sizes[l] > sizes[best] {
			best = l
		}
	}
	keep := make([]int64, 0, sizes[best])
	for v := int64(0); v < g.n; v++ {
		if labels[v] == best {
			keep = append(keep, v)
		}
	}
	return g.InducedSubgraph(keep)
}

// IsConnected reports whether g has exactly one connected component
// (the empty graph is not connected). The sweep runs on the first call
// and its answer is cached on the graph. Safe for concurrent use.
func (g *Graph) IsConnected() bool {
	g.connectedOnce.Do(func() {
		_, count := g.ConnectedComponents()
		g.connected = count == 1
	})
	return g.connected
}
