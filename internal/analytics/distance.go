package analytics

import (
	"errors"
	"math"

	"kronlab/internal/graph"
)

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

// BoundedEccentricities is ref [3]'s bound rule (Iwabuchi, Sanders,
// Henderson, Pearce, CLUSTER'18): the BFS eccentricity of every vertex of
// a connected symmetric graph on n vertices, from sweeps that prune the
// rest. from(s) returns the BFS distances from s, read before the next
// call. Each sweep from s tightens every unresolved vertex's bounds
//
//	lower(v) = max(lower(v), dist(s,v), ecc(s) − dist(s,v))
//	upper(v) = min(upper(v), ecc(s) + dist(s,v))
//
// and resolves a vertex when they meet. Sources alternate between the
// unresolved vertex of largest upper bound (resolving the periphery) and
// of smallest lower bound (the center), ties to the larger degree, seeded
// by the vertex of largest degree. It returns the eccentricities and the
// sweeps used, or an error when a sweep leaves a vertex unreached.
func BoundedEccentricities(n int64, degree func(v int64) int64, from func(s int64) []int64) ([]int64, int, error) {
	lower, upper, ecc := make([]int64, n), make([]int64, n), make([]int64, n)
	for v := range upper {
		upper[v] = math.MaxInt64
	}
	resolved := make([]bool, n)
	var nResolved int64
	pick := int64(0)
	for v := int64(1); v < n; v++ {
		if degree(v) > degree(pick) {
			pick = v
		}
	}
	sweeps, wantMaxUpper := 0, true
	for nResolved < n {
		s := pick
		h := from(s)
		sweeps++
		var eccS int64
		for _, d := range h {
			if d == Unreachable {
				return nil, sweeps, errors.New("requires a connected graph")
			}
			eccS = max(eccS, d)
		}
		for v := int64(0); v < n; v++ {
			if resolved[v] {
				continue
			}
			d := h[v]
			lower[v] = max(lower[v], d, eccS-d)
			upper[v] = min(upper[v], eccS+d)
			if lower[v] >= upper[v] || v == s {
				ecc[v] = lower[v]
				if v == s {
					ecc[v] = eccS
				}
				resolved[v] = true
				nResolved++
			}
		}
		// The next source, among the unresolved vertices.
		pick = -1
		for v := int64(0); v < n; v++ {
			switch {
			case resolved[v]:
			case pick == -1:
				pick = v
			case wantMaxUpper:
				if upper[v] > upper[pick] || (upper[v] == upper[pick] && degree(v) > degree(pick)) {
					pick = v
				}
			default:
				if lower[v] < lower[pick] || (lower[v] == lower[pick] && degree(v) > degree(pick)) {
					pick = v
				}
			}
		}
		wantMaxUpper = !wantMaxUpper
	}
	return ecc, sweeps, nil
}

// PrunedEccentricities is Eccentricities of g — of g+I when plusI — by
// the bound rule over the serial sweep: ε(v) is the larger of v's BFS
// eccentricity and hops(v,v), so a loop-free vertex's is at least 2 and
// a loop-free K₁'s Unreachable. A g that is not connected is Unreachable
// everywhere, after one IsConnected (cached on g), so no sweep leaves a
// vertex unreached and the rule returns no error. g must be symmetric, as
// NewUndirected builds it: the bounds hold only for an undirected distance.
func PrunedEccentricities(g *graph.Graph, plusI bool) []int64 {
	n := g.NumVertices()
	if !g.IsConnected() {
		return unreached(n)
	}
	dist, queue := unreached(n), make([]int64, 0, n)
	ecc, _, _ := BoundedEccentricities(n, g.Degree, func(s int64) []int64 {
		for _, v := range queue {
			dist[v] = Unreachable
		}
		queue = sweep(g, s, dist, queue)
		return dist
	})
	for v := range ecc {
		ecc[v] = MaxHops(ecc[v], diagonal(g, int64(v), plusI))
	}
	return ecc
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
