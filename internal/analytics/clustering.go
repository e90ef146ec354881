package analytics

import (
	"math"

	"kronlab/internal/graph"
)

// VertexClustering returns the clustering coefficient at every vertex
// (Def. 7): η(i) = 2·t_i / (d_i·(d_i − 1)). Entries with d_i < 2 are NaN
// (undefined). The caller should pass a loop-free graph, matching the
// hypothesis of Thm. 1; self loops would inflate d_i without adding
// triangles.
func VertexClustering(g *graph.Graph) []float64 {
	ts := Triangles(g)
	out := make([]float64, g.NumVertices())
	for v := range out {
		d := g.Degree(int64(v))
		if d < 2 {
			out[v] = math.NaN()
			continue
		}
		out[v] = 2 * float64(ts.Vertex[v]) / float64(d*(d-1))
	}
	return out
}

// EdgeClustering returns the clustering coefficient for every arc
// (Def. 7): ξ(i,j) = Δ_ij / (min{d_i, d_j} − 1), aligned with CSR arc
// indices. Loop arcs and arcs with min degree < 2 are NaN.
func EdgeClustering(g *graph.Graph) []float64 {
	ts := Triangles(g)
	out := make([]float64, g.NumArcs())
	idx := int64(-1)
	g.Arcs(func(u, v int64) bool {
		idx++
		if u == v {
			out[idx] = math.NaN()
			return true
		}
		du, dv := g.Degree(u), g.Degree(v)
		m := du
		if dv < m {
			m = dv
		}
		if m < 2 {
			out[idx] = math.NaN()
			return true
		}
		out[idx] = float64(ts.Arc[idx]) / float64(m-1)
		return true
	})
	return out
}
