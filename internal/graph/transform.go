package graph

import "slices"

// WithFullSelfLoops returns A + I: a copy of g with a self loop added at
// every vertex. Existing self loops are preserved (the adjacency pattern is
// boolean, so A + I saturates at 1). One pass over the CSR: each row is
// copied with v inserted at its sorted place, unless it is there already.
func (g *Graph) WithFullSelfLoops() *Graph {
	out := &Graph{n: g.n, offsets: make([]int64, g.n+1), adj: make([]int64, 0, int64(len(g.adj))+g.n-g.loops), loops: g.n}
	for v := int64(0); v < g.n; v++ {
		row := g.adj[g.offsets[v]:g.offsets[v+1]]
		i, found := slices.BinarySearch(row, v)
		out.adj = append(out.adj, row[:i]...)
		if !found {
			out.adj = append(out.adj, v)
		}
		out.adj = append(out.adj, row[i:]...)
		out.offsets[v+1] = int64(len(out.adj))
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
