// Package analytics implements exact graph analytics by direct
// computation: BFS hop distances, eccentricity, closeness centrality,
// diameter, exact per-vertex and per-edge triangle counts, clustering
// coefficients, community edge counts and densities, and histograms.
//
// These serve two roles in the reproduction: (1) they are run on the small
// factors A and B to obtain the inputs of the Kronecker ground-truth
// formulas, and (2) they are run on the materialized product C as the
// oracle the formulas are validated against.
package analytics

import "kronlab/internal/graph"

// Unreachable marks vertex pairs with no connecting walk in hop vectors.
const Unreachable = int64(-1)

// sweep is the package's one breadth-first body, level-synchronous from
// src over g's arcs. It sets dist (Unreachable wherever it may go) to each
// reached vertex's level and returns them in queue's buffer, level by
// level; resetting dist there readies the caller's buffers again.
func sweep(g *graph.Graph, src int64, dist, queue []int64) []int64 {
	dist[src] = 0
	queue = append(queue[:0], src)
	for lo, level := 0, int64(1); lo < len(queue); level++ {
		hi := len(queue)
		for _, v := range queue[lo:hi] {
			for _, w := range g.Neighbors(v) {
				if dist[w] == Unreachable {
					dist[w] = level
					queue = append(queue, w)
				}
			}
		}
		lo = hi
	}
	return queue
}

// unreached returns a fresh dist buffer: n × Unreachable.
func unreached(n int64) []int64 {
	dist := make([]int64, n)
	for i := range dist {
		dist[i] = Unreachable
	}
	return dist
}

// BFS returns the standard BFS distance from src to every vertex, with
// dist[src] = 0 and Unreachable (-1) for vertices in other components.
func BFS(g *graph.Graph, src int64) []int64 {
	dist := unreached(g.NumVertices())
	sweep(g, src, dist, nil)
	return dist
}

// Hops returns the paper's hop counts from src (Def. 9):
// hops(i,j) = min { h ≥ 1 : (A^h)_ij > 0 }.
//
// For i ≠ j this is the BFS distance. For the diagonal it is the length of
// the shortest closed walk at src (see diagonal); under the theorems'
// hypothesis of full self loops, hops(i,i) = 1 always.
func Hops(g *graph.Graph, src int64) []int64 {
	h := BFS(g, src)
	h[src] = diagonal(g, src, false)
	return h
}

// diagonal returns hops(v,v): 1 if v has a self loop — always in g+I —,
// 2 if v has any neighbor, and Unreachable for an isolated vertex.
func diagonal(g *graph.Graph, v int64, plusI bool) int64 {
	switch {
	case plusI || g.HasSelfLoop(v):
		return 1
	case g.Degree(v) > 0:
		return 2
	default:
		return Unreachable
	}
}

// AllPairsHops returns the full hop-count matrix as n row vectors. Cost is
// O(n·(n+arcs)) time and n² hops: a test oracle for small graphs.
func AllPairsHops(g *graph.Graph) [][]int64 {
	n := g.NumVertices()
	rows := make([][]int64, n)
	for v := int64(0); v < n; v++ {
		rows[v] = Hops(g, v)
	}
	return rows
}

// IsBipartite reports whether g is 2-colorable, treating arcs as
// undirected. A self loop makes a graph non-bipartite (an odd closed
// walk). Needed by Weichsel's connectivity theorem for Kronecker
// products (the paper's ref [1]).
func IsBipartite(g *graph.Graph) bool {
	n := g.NumVertices()
	dist := unreached(n)
	var queue []int64
	for s := int64(0); s < n; s++ {
		if dist[s] != Unreachable {
			continue
		}
		queue = sweep(g, s, dist, queue)
		for _, v := range queue {
			for _, w := range g.Neighbors(v) {
				if dist[w] == dist[v] {
					return false // an arc within a level (a loop included) closes an odd cycle
				}
			}
		}
	}
	return true
}
