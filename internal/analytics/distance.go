package analytics

import "kronlab/internal/graph"

// MaxHops is the max law on hop counts (Thm. 3): the larger of x and y,
// Unreachable if either is.
func MaxHops(x, y int64) int64 {
	if x == Unreachable || y == Unreachable {
		return Unreachable
	}
	return max(x, y)
}

// Eccentricity returns ε(src) = max_j hops(src, j) over reachable j
// (Def. 11). If any vertex is unreachable from src it returns Unreachable,
// mirroring the convention that eccentricity is infinite on disconnected
// graphs.
func Eccentricity(g *graph.Graph, src int64) int64 { return EccentricityOf(Hops(g, src)) }

// EccentricityOf returns ε of the vertex whose hop row is hops.
func EccentricityOf(hops []int64) int64 {
	var ecc int64
	for _, h := range hops {
		ecc = MaxHops(ecc, h)
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
func Diameter(g *graph.Graph) int64 { return DiameterOf(Eccentricities(g)) }

// DiameterOf returns the largest of every vertex's ε, Unreachable for none.
func DiameterOf(eccs []int64) int64 {
	if len(eccs) == 0 {
		return Unreachable
	}
	var d int64
	for _, e := range eccs {
		d = MaxHops(d, e)
	}
	return d
}

// Closeness returns ζ(src) = Σ_j 1/hops(src, j) (Def. 12), summing over
// reachable j only (unreachable vertices contribute 0, the 1/∞ limit).
// Note the sum includes j = src via hops(src,src) ∈ {1,2}.
func Closeness(g *graph.Graph, src int64) float64 { return ClosenessOf(Hops(g, src)) }

// ClosenessOf returns ζ of the vertex whose hop row is hops.
func ClosenessOf(hops []int64) float64 {
	var s float64
	for _, d := range hops {
		if d != Unreachable {
			s += 1 / float64(d)
		}
	}
	return s
}
