package graph

// WithFullSelfLoops returns A + I: a copy of g with a self loop added at
// every vertex. Existing self loops are preserved (the adjacency pattern is
// boolean, so A + I saturates at 1).
func (g *Graph) WithFullSelfLoops() *Graph {
	arcs := g.ArcList()
	for v := int64(0); v < g.n; v++ {
		if !g.HasSelfLoop(v) {
			arcs = append(arcs, Edge{v, v})
		}
	}
	out, err := New(g.n, arcs)
	if err != nil {
		panic("graph: WithFullSelfLoops: " + err.Error()) // arcs from a valid graph cannot be out of range
	}
	return out
}

// StripSelfLoops returns A − A∘I: a copy of g with all self loops removed.
func (g *Graph) StripSelfLoops() *Graph {
	arcs := make([]Edge, 0, len(g.adj))
	g.Arcs(func(u, v int64) bool {
		if u != v {
			arcs = append(arcs, Edge{u, v})
		}
		return true
	})
	out, err := New(g.n, arcs)
	if err != nil {
		panic("graph: StripSelfLoops: " + err.Error())
	}
	return out
}

// InducedSubgraph returns the subgraph induced by the vertex set keep,
// with vertices relabeled 0..len(keep)-1 in the order given, plus the
// mapping from new labels back to old ones. Vertices listed more than once
// are an error at the caller; behavior is then undefined.
func (g *Graph) InducedSubgraph(keep []int64) (*Graph, []int64) {
	newID := make(map[int64]int64, len(keep))
	for i, v := range keep {
		newID[v] = int64(i)
	}
	var arcs []Edge
	for _, v := range keep {
		for _, w := range g.Neighbors(v) {
			if nw, ok := newID[w]; ok {
				arcs = append(arcs, Edge{newID[v], nw})
			}
		}
	}
	out, err := New(int64(len(keep)), arcs)
	if err != nil {
		panic("graph: InducedSubgraph: " + err.Error())
	}
	old := make([]int64, len(keep))
	copy(old, keep)
	return out, old
}

// FilterArcs returns a copy of g keeping only the arcs for which keep
// returns true. The vertex count is unchanged.
func (g *Graph) FilterArcs(keep func(u, v int64) bool) *Graph {
	var arcs []Edge
	g.Arcs(func(u, v int64) bool {
		if keep(u, v) {
			arcs = append(arcs, Edge{u, v})
		}
		return true
	})
	out, err := New(g.n, arcs)
	if err != nil {
		panic("graph: FilterArcs: " + err.Error())
	}
	return out
}
