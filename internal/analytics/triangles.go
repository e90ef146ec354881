package analytics

import "kronlab/internal/graph"

// TriangleStats holds exact triangle participation counts for an
// undirected graph, following the paper's Defs. 5 and 6: self loops never
// participate in triangles (the definitions use A − A∘I), so loops are
// ignored structurally and loop arcs carry an edge count of 0.
type TriangleStats struct {
	// Vertex[v] is t_v, the number of undirected triangles incident to v:
	// t = ½·diag((A − A∘I)³).
	Vertex []int64
	// Arc[idx] is Δ_uv for the arc at CSR position idx of the analyzed
	// graph: Δ = (A − A∘I) ∘ (A − A∘I)². Symmetric in (u,v).
	Arc []int64
	// Global is τ, the total number of distinct triangles: Σ_v t_v / 3.
	Global int64
}

// Triangles computes exact triangle participation at vertices and arcs
// of an undirected graph by degree-ordered counting (rank-ordered
// counting, the paper's ref [23]): each edge is oriented
// from the lower to the higher (degree, id), so each triangle u → v → w,
// u → w is found once, from u, by marking N⁺(u) and walking N⁺(v) for
// each v ∈ N⁺(u); it adds to its three vertices and its six arcs. Cost is
// O(m^{3/2}) however skewed the degrees.
func Triangles(g *graph.Graph) *TriangleStats {
	n, off := g.NumVertices(), g.RowOffsets()
	ts := &TriangleStats{
		Vertex: make([]int64, n),
		Arc:    make([]int64, g.NumArcs()),
	}
	// One pass over the rows in ascending u builds N⁺ as (head, arc
	// position) pairs, and rev[x], the position of arc x's reverse: row v
	// lists the u with an arc (u, v) ascending, the order the pass meets
	// them, so next[v] is where the next one sits.
	type outArc struct{ v, x int64 }
	out := make([]outArc, 0, (len(ts.Arc)+1)/2)
	outOff := make([]int64, n+1)
	rev := make([]int64, len(ts.Arc))
	next := append([]int64(nil), off[:n]...)
	for u := int64(0); u < n; u++ {
		du := g.Degree(u)
		for i, v := range g.Neighbors(u) {
			x := off[u] + int64(i)
			rev[x] = next[v]
			next[v]++
			if dv := g.Degree(v); du < dv || du == dv && u < v {
				out = append(out, outArc{v, x})
			}
		}
		outOff[u+1] = int64(len(out))
	}
	mark := next // mark[w] is the position of arc (u, w) while w ∈ N⁺(u), else −1
	for w := range mark {
		mark[w] = -1
	}
	for u := int64(0); u < n; u++ {
		nu := out[outOff[u]:outOff[u+1]]
		for _, a := range nu {
			mark[a.v] = a.x
		}
		for _, uv := range nu {
			for _, vw := range out[outOff[uv.v]:outOff[uv.v+1]] {
				uw := mark[vw.v]
				if uw < 0 {
					continue
				}
				ts.Global++
				ts.Vertex[u]++
				ts.Vertex[uv.v]++
				ts.Vertex[vw.v]++
				for _, x := range [3]int64{uv.x, vw.x, uw} {
					ts.Arc[x]++
					ts.Arc[rev[x]]++
				}
			}
		}
		for _, a := range nu {
			mark[a.v] = -1
		}
	}
	return ts
}

// commonNeighbors counts w ∉ {u, v} adjacent to both u and v, by merging
// the two sorted adjacency rows.
func commonNeighbors(g *graph.Graph, u, v int64) int64 {
	a, b := g.Neighbors(u), g.Neighbors(v)
	var count int64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if w := a[i]; w != u && w != v {
				count++
			}
			i++
			j++
		}
	}
	return count
}

// EdgeTriangles returns Δ_uv for a single arc (u, v), or 0 for a loop.
func EdgeTriangles(g *graph.Graph, u, v int64) int64 {
	if u == v {
		return 0
	}
	return commonNeighbors(g, u, v)
}

// GlobalTriangles returns τ, the number of distinct triangles in g.
func GlobalTriangles(g *graph.Graph) int64 {
	return Triangles(g).Global
}
