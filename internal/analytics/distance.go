package analytics

import "kronlab/internal/graph"

// Eccentricity returns ε(src) = max_j hops(src, j) over reachable j
// (Def. 11). If any vertex is unreachable from src it returns Unreachable,
// mirroring the convention that eccentricity is infinite on disconnected
// graphs.
func Eccentricity(g *graph.Graph, src int64) int64 {
	h := Hops(g, src)
	var ecc int64
	for _, d := range h {
		if d == Unreachable {
			return Unreachable
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Eccentricities returns ε(v) for every vertex by running a BFS from each.
func Eccentricities(g *graph.Graph) []int64 {
	n := g.NumVertices()
	out := make([]int64, n)
	for v := int64(0); v < n; v++ {
		out[v] = Eccentricity(g, v)
	}
	return out
}

// Diameter returns diam(G) = max_v ε(v) (Def. 10), or Unreachable for a
// disconnected or empty graph.
func Diameter(g *graph.Graph) int64 {
	if g.NumVertices() == 0 {
		return Unreachable
	}
	var d int64
	for v := int64(0); v < g.NumVertices(); v++ {
		e := Eccentricity(g, v)
		if e == Unreachable {
			return Unreachable
		}
		if e > d {
			d = e
		}
	}
	return d
}

// Closeness returns ζ(src) = Σ_j 1/hops(src, j) (Def. 12), summing over
// reachable j only (unreachable vertices contribute 0, the 1/∞ limit).
// Note the sum includes j = src via hops(src,src) ∈ {1,2}.
func Closeness(g *graph.Graph, src int64) float64 {
	h := Hops(g, src)
	var s float64
	for _, d := range h {
		if d != Unreachable {
			s += 1 / float64(d)
		}
	}
	return s
}

// HopHistogram returns, for the row hops(src, ·), the count of vertices at
// each hop value h ∈ [1, maxH]; index 0 is unused. Unreachable entries are
// dropped. This is the compressed representation used by the paper's
// efficient closeness formula (Sec. V-B).
func HopHistogram(row []int64, maxH int64) []int64 {
	hist := make([]int64, maxH+1)
	for _, d := range row {
		if d == Unreachable {
			continue
		}
		if d >= 1 && d <= maxH {
			hist[d]++
		}
	}
	return hist
}
