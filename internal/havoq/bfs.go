package havoq

import "kronlab/internal/analytics"

// BFS runs an asynchronous distributed breadth-first search from src and
// returns the full distance vector (gathered), with
// analytics.Unreachable for other components. Asynchronous label
// correction: a vertex re-propagates whenever its distance improves, the
// standard visitor formulation in HavoqGT.
func (dg *DistGraph) BFS(src int64) []int64 {
	// Per-rank distance shards, touched only by the owning rank's visits.
	dist := make([][]int64, dg.R)
	for r := range dist {
		dist[r] = make([]int64, len(dg.rows[r]))
		for i := range dist[r] {
			dist[r][i] = analytics.Unreachable
		}
	}
	e := NewEngine(dg)
	e.Run([]Msg{{Target: src, A: 0}}, func(rank int, m Msg, send func(Msg)) {
		li := dg.localIndex(m.Target)
		d := dist[rank][li]
		if d != analytics.Unreachable && d <= m.A {
			return
		}
		dist[rank][li] = m.A
		for _, w := range dg.rows[rank][li] {
			send(Msg{Target: w, A: m.A + 1})
		}
	})
	out := make([]int64, dg.N)
	for v := int64(0); v < dg.N; v++ {
		out[v] = dist[dg.Owner(v)][dg.localIndex(v)]
	}
	return out
}

// Hops runs a distributed BFS and applies the paper's diagonal convention
// (Def. 9): hops(src,src) = 1 with a self loop, 2 with any neighbor,
// unreachable for an isolated vertex. Matches analytics.Hops exactly.
func (dg *DistGraph) Hops(src int64) []int64 {
	h := dg.BFS(src)
	switch {
	case dg.HasSelfLoop(src):
		h[src] = 1
	case dg.Degree(src) > 0:
		h[src] = 2
	default:
		h[src] = analytics.Unreachable
	}
	return h
}
