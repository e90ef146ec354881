package havoq

import "slices"

// Distributed triangle counting by degree-ordered wedge checks, after the
// approach of the paper's ref [23] (Pearce, HPEC'17): orient each edge
// from lower to higher (degree, id) rank, enumerate wedges at their
// minimum vertex, and ship each wedge to the owner of one endpoint to
// test closure. Self loops never participate (Def. 5 strips the
// diagonal).

// TriangleResult holds distributed triangle-count output.
type TriangleResult struct {
	Vertex []int64 // t_v per vertex
	Global int64   // τ
	// Messages counts the records the supersteps exchange (wedge checks
	// and closure credits), those a rank sends itself included, for cost
	// reporting.
	Messages int64
}

// less reports whether u precedes v in the degree-then-id total order
// used to orient edges.
func (dg *DistGraph) less(u, v int64) bool {
	du, dv := dg.Degree(u), dg.Degree(v)
	if du != dv {
		return du < dv
	}
	return u < v
}

// Triangles counts triangles in three supersteps of the exchange.
// Per-vertex counts and the global count are exact for undirected graphs;
// ordering uses locally readable degrees (a degree exchange in a real
// cluster, a shared read in this simulation).
func (dg *DistGraph) Triangles() *TriangleResult {
	counts := make([][]int64, dg.R)
	for r := range counts {
		counts[r] = make([]int64, len(dg.rows[r]))
	}
	x := newExchange(dg.R)
	// 1. Each rank enumerates the wedges (v, u, w) at its own vertices u,
	// v and w both after u and v before w, and sends (v, w, u) to owner(v).
	checks := x.superstep(func(rank int, _, out [][]int64) {
		var higher []int64
		for li, row := range dg.rows[rank] {
			u := dg.vertex(rank, li)
			higher = higher[:0]
			for _, w := range row {
				if w != u && dg.less(u, w) {
					higher = append(higher, w)
				}
			}
			for i, a := range higher {
				for _, b := range higher[i+1:] {
					v, w := a, b
					if dg.less(w, v) {
						v, w = w, v
					}
					o := dg.Owner(v)
					out[o] = append(out[o], v, w, u)
				}
			}
		}
	}) / 3
	// 2. owner(v) closes each wedge whose arc (v, w) it holds — a binary
	// search of v's sorted row: it credits v and sends a credit each to
	// owner(u) and owner(w).
	credits := x.superstep(func(rank int, in, out [][]int64) {
		for _, recs := range in {
			for i := 0; i < len(recs); i += 3 {
				v, w, u := recs[i], recs[i+1], recs[i+2]
				lv := dg.localIndex(v)
				if _, closed := slices.BinarySearch(dg.rows[rank][lv], w); closed {
					counts[rank][lv]++
					ou, ow := dg.Owner(u), dg.Owner(w)
					out[ou] = append(out[ou], u)
					out[ow] = append(out[ow], w)
				}
			}
		}
	})
	// 3. Each rank applies its credits.
	x.superstep(func(rank int, in, _ [][]int64) {
		for _, recs := range in {
			for _, v := range recs {
				counts[rank][dg.localIndex(v)]++
			}
		}
	})
	res := &TriangleResult{Vertex: make([]int64, dg.N), Messages: checks + credits}
	for v := int64(0); v < dg.N; v++ {
		res.Vertex[v] = counts[dg.Owner(v)][dg.localIndex(v)]
		res.Global += res.Vertex[v]
	}
	res.Global /= 3
	return res
}
