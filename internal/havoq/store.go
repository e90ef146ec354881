// Package havoq is a small distributed graph engine modeled on HavoqGT
// (the paper's ref [18]), the framework the paper's generator ships in.
// It provides a vertex-partitioned distributed graph store over R ranks
// and a level-synchronous exchange, in which the ranks run in supersteps
// and send records to each other's owners between them. On it run a
// level-synchronous distributed BFS, exact vertex eccentricity (the
// bound-pruning algorithm of ref [3]) and distributed triangle counting
// (degree-ordered wedge checks, ref [23]). These are the
// "trusted distributed algorithms" the paper validates its ground-truth
// formulas against in Fig. 1.
package havoq

import (
	"fmt"

	"kronlab/internal/graph"
)

// DistGraph is a distributed CSR store: vertex v lives on rank v mod R,
// which holds v's full adjacency row.
type DistGraph struct {
	R int
	N int64
	// rows[r][v/R] is the adjacency of owned vertex v on rank r, sorted
	// ascending as the graph's rows are.
	rows [][][]int64
	// degs[r][v/R] is the degree of owned vertex v.
	degs [][]int64
}

// Owner returns the rank owning vertex v.
func (dg *DistGraph) Owner(v int64) int { return int(v % int64(dg.R)) }

// localIndex returns v's slot in its owner's arrays.
func (dg *DistGraph) localIndex(v int64) int64 { return v / int64(dg.R) }

// vertex returns the vertex in slot li of rank's arrays.
func (dg *DistGraph) vertex(rank int, li int) int64 { return int64(li)*int64(dg.R) + int64(rank) }

// Build partitions g across r ranks by v mod r.
func Build(g *graph.Graph, r int) (*DistGraph, error) {
	if r < 1 {
		return nil, fmt.Errorf("havoq: need ≥ 1 rank, got %d", r)
	}
	n := g.NumVertices()
	dg := &DistGraph{R: r, N: n, rows: make([][][]int64, r), degs: make([][]int64, r)}
	for rank := 0; rank < r; rank++ {
		owned := (n - int64(rank) + int64(r) - 1) / int64(r)
		dg.rows[rank] = make([][]int64, owned)
		dg.degs[rank] = make([]int64, owned)
	}
	for v := int64(0); v < n; v++ {
		row := g.Neighbors(v)
		cp := make([]int64, len(row))
		copy(cp, row)
		dg.rows[dg.Owner(v)][dg.localIndex(v)] = cp
		dg.degs[dg.Owner(v)][dg.localIndex(v)] = int64(len(cp))
	}
	return dg, nil
}

// BuildFromParts assembles a DistGraph directly from per-rank edge sets,
// such as the output of dist.GenerateChain with an OwnerBySource-compatible
// mapping. Edges may land on any rank; they are re-homed to the owner of
// their source vertex. n is the product vertex count.
func BuildFromParts(n int64, r int, parts [][]graph.Edge) (*DistGraph, error) {
	var arcs []graph.Edge
	for _, p := range parts {
		arcs = append(arcs, p...)
	}
	g, err := graph.New(n, arcs)
	if err != nil {
		return nil, err
	}
	return Build(g, r)
}

// Neighbors returns the adjacency row of v (owner-local read).
func (dg *DistGraph) Neighbors(v int64) []int64 {
	return dg.rows[dg.Owner(v)][dg.localIndex(v)]
}

// Degree returns v's degree.
func (dg *DistGraph) Degree(v int64) int64 {
	return dg.degs[dg.Owner(v)][dg.localIndex(v)]
}

// HasSelfLoop reports whether v's row contains v.
func (dg *DistGraph) HasSelfLoop(v int64) bool {
	for _, w := range dg.Neighbors(v) {
		if w == v {
			return true
		}
	}
	return false
}
