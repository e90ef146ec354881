package havoq

import "kronlab/internal/analytics"

// sweeper is a level-synchronous distributed BFS: each rank holds the
// distances of the vertices it owns and expands its own slice of the
// frontier. Its buffers are kept across sweeps.
type sweeper struct {
	dg *DistGraph
	x  *exchange
	// dist[r][i], front[r] and next[r] are touched only by rank r; front
	// and next hold local indices.
	dist, front, next [][]int64
}

func newSweeper(dg *DistGraph) *sweeper {
	s := &sweeper{dg: dg, x: newExchange(dg.R),
		dist: make([][]int64, dg.R), front: make([][]int64, dg.R), next: make([][]int64, dg.R)}
	for r := range s.dist {
		s.dist[r] = make([]int64, len(dg.rows[r]))
	}
	return s
}

// from runs a BFS from src and gathers the distance of every vertex into
// h (len N), with analytics.Unreachable for other components.
//
// Superstep k expands the vertices at distance k−1. A rank first takes
// into its frontier the vertices other ranks reached in superstep k−1,
// then marks its own unvisited neighbours of the frontier at distance k
// (they form its next frontier) and sends the rest to their owners. The
// sweep ends after a superstep that sends nothing and leaves every next
// frontier empty.
func (s *sweeper) from(src int64, h []int64) {
	dg := s.dg
	for r, d := range s.dist {
		for i := range d {
			d[i] = analytics.Unreachable
		}
		s.front[r] = s.front[r][:0]
	}
	o, li := dg.Owner(src), dg.localIndex(src)
	s.dist[o][li] = 0
	s.front[o] = append(s.front[o], li)
	for level := int64(1); ; level++ {
		sent := s.x.superstep(func(rank int, in, out [][]int64) {
			dist, front, next := s.dist[rank], s.front[rank], s.next[rank][:0]
			for _, recs := range in {
				for _, v := range recs {
					if li := dg.localIndex(v); dist[li] == analytics.Unreachable {
						dist[li] = level - 1
						front = append(front, li)
					}
				}
			}
			for _, li := range front {
				for _, w := range dg.rows[rank][li] {
					if o := dg.Owner(w); o != rank {
						out[o] = append(out[o], w)
					} else if lw := dg.localIndex(w); dist[lw] == analytics.Unreachable {
						dist[lw] = level
						next = append(next, lw)
					}
				}
			}
			s.front[rank], s.next[rank] = next, front[:0]
		})
		if sent == 0 && s.frontiersEmpty() {
			break
		}
	}
	for v := range h {
		h[v] = s.dist[dg.Owner(int64(v))][dg.localIndex(int64(v))]
	}
}

func (s *sweeper) frontiersEmpty() bool {
	for _, f := range s.front {
		if len(f) > 0 {
			return false
		}
	}
	return true
}

// BFS runs a level-synchronous distributed breadth-first search from src
// and returns the full distance vector (gathered), with
// analytics.Unreachable for other components.
func (dg *DistGraph) BFS(src int64) []int64 {
	h := make([]int64, dg.N)
	newSweeper(dg).from(src, h)
	return h
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
