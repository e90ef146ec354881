// Package gen provides deterministic, seeded factor-graph generators used
// throughout the reproduction: Erdős–Rényi, R-MAT (the stochastic
// Kronecker generator the paper contrasts against, with Graph500
// parameters), stochastic block models with planted communities,
// disjoint cliques, structured graphs (ring, path, star, grid, complete),
// preferential attachment, and a synthetic stand-in for the SNAP
// gnutella08 peer-to-peer graph used in the paper's Fig. 1 (see DESIGN.md
// §2 for the substitution rationale).
//
// All generators return loop-free undirected graphs unless documented
// otherwise; callers add self loops with Graph.WithFullSelfLoops when a
// formula's hypothesis requires them.
package gen

import (
	"math/rand"

	"kronlab/internal/graph"
)

func mustUndirected(n int64, edges []graph.Edge) *graph.Graph {
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		panic("gen: " + err.Error())
	}
	return g
}

// ER returns a G(n, p) Erdős–Rényi graph: each of the n·(n−1)/2 possible
// edges is present independently with probability p.
func ER(n int64, p float64, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	return mustUndirected(n, edges)
}

// Clique returns the complete graph K_n (no self loops).
func Clique(n int64) *graph.Graph {
	var edges []graph.Edge
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	return mustUndirected(n, edges)
}

// DisjointCliques returns x disjoint cliques of size y each (Ex. 1);
// clique c holds vertices [c·y, (c+1)·y).
func DisjointCliques(x, y int64) *graph.Graph {
	var edges []graph.Edge
	for c := int64(0); c < x; c++ {
		base := c * y
		for u := int64(0); u < y; u++ {
			for v := u + 1; v < y; v++ {
				edges = append(edges, graph.Edge{U: base + u, V: base + v})
			}
		}
	}
	return mustUndirected(x*y, edges)
}

// Ring returns the cycle C_n (n ≥ 3), a graph with known diameter ⌊n/2⌋ —
// the paper's suggested tool for diameter control (Sec. V-C).
func Ring(n int64) *graph.Graph {
	edges := make([]graph.Edge, n)
	for v := int64(0); v < n; v++ {
		edges[v] = graph.Edge{U: v, V: (v + 1) % n}
	}
	return mustUndirected(n, edges)
}

// Path returns the path P_n with n vertices and n−1 edges (diameter n−1);
// P_0 is the empty graph.
func Path(n int64) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := int64(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	return mustUndirected(n, edges)
}

// Star returns the star K_{1,n−1} with center 0; for n = 0 it is the
// empty graph.
func Star(n int64) *graph.Graph {
	edges := make([]graph.Edge, 0, max(n-1, 0))
	for v := int64(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v})
	}
	return mustUndirected(n, edges)
}

// Grid returns the r×c grid graph with vertices numbered row-major.
func Grid(r, c int64) *graph.Graph {
	var edges []graph.Edge
	id := func(i, j int64) int64 { return i*c + j }
	for i := int64(0); i < r; i++ {
		for j := int64(0); j < c; j++ {
			if j+1 < c {
				edges = append(edges, graph.Edge{U: id(i, j), V: id(i, j+1)})
			}
			if i+1 < r {
				edges = append(edges, graph.Edge{U: id(i, j), V: id(i+1, j)})
			}
		}
	}
	return mustUndirected(r*c, edges)
}
