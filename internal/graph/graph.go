// Package graph provides the compressed sparse row (CSR) graph substrate
// used throughout kronlab: construction from edge lists, undirected and
// self-loop transforms, connected components, degrees, and edge-list file
// I/O.
//
// Conventions (see DESIGN.md §5):
//
//   - Vertices are int64 and 0-based.
//   - A Graph stores the full adjacency matrix pattern: an undirected edge
//     {u,v} with u≠v appears as the two arcs (u,v) and (v,u); a self loop
//     (v,v) appears as a single arc.
//   - NumArcs is the number of stored arcs (nonzeros of the adjacency
//     matrix); NumEdges is the undirected edge count (off-diagonal arc
//     pairs counted once, plus self loops).
package graph

import (
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Edge is a directed arc (U, V). Undirected edges are represented by the
// canonical form U ≤ V in edge lists and by both arcs in a Graph.
type Edge struct {
	U, V int64
}

// Canon returns e with endpoints swapped if necessary so that U ≤ V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		return Edge{e.V, e.U}
	}
	return e
}

// Graph is an immutable CSR adjacency structure. The zero value is the
// empty graph on zero vertices.
type Graph struct {
	n       int64
	offsets []int64 // len n+1
	adj     []int64 // neighbor lists, sorted ascending within each row
	loops   int64   // number of self loops

	arcsOnce sync.Once
	arcs     []Edge // flat CSR-order arc list, built lazily by ArcSlice

	packedOnce sync.Once
	packed     []uint64 // ArcSlice as u | v<<32, built lazily by PackedArcs

	narrowOnce sync.Once
	narrow     []uint32 // ArcSlice as u | v<<16, built lazily by NarrowArcs
}

// New builds a Graph on n vertices from the given arcs. Each arc is
// inserted exactly as given (no symmetrization); duplicates are removed.
// Arc endpoints must lie in [0, n). Use NewUndirected to symmetrize.
func New(n int64, arcs []Edge) (*Graph, error) {
	return build(n, arcs, false)
}

// NewUndirected builds an undirected Graph on n vertices: every off-diagonal
// edge {u,v} is stored as both arcs, self loops as a single arc. Input
// edges may be in either orientation and may contain duplicates.
func NewUndirected(n int64, edges []Edge) (*Graph, error) {
	return build(n, edges, true)
}

// build is New when both is false and NewUndirected when it is true: each
// edge (u,v) then stands for the arcs (u,v) and (v,u), one arc for a
// loop, read off the edge list in place of a doubled copy of it.
//
// The two differ only in how rows come out ascending. Undirected rows
// take two counting passes, linear with no comparison sort: pass 1 is a
// counting sort by target into scratch, 8 B an arc, which stands in for
// the doubled copy; pass 2 walks those groups in target order and
// scatters each source's targets into its row — stable, so every row
// ascends, and a duplicate is exactly the target last written to its
// row. Pass 2 drops it there without a branch: it always stores, and
// advances the row's cursor only past a target its row does not yet end
// with, counting loops the same way; then one copy a row closes the rows
// up. A directed arc set has no copy for scratch to replace, so there the
// arcs are bucketed by source, each row that does not already ascend is
// sorted, and one pass moves the rows into place with the same
// branch-free step, a duplicate being the target read just before it.
// Its largest input, Product's arcs, arrives with every row ascending
// (BenchmarkNew). Besides the result, construction allocates one O(n)
// array, plus the scratch when both is true.
func build(n int64, edges []Edge, both bool) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, a := range edges {
		if a.U < 0 || a.U >= n || a.V < 0 || a.V >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", a.U, a.V, n)
		}
	}

	// offsets[u+1] counts the arcs leaving u. An undirected arc set is
	// symmetric, so it also counts those entering u. both is tested once,
	// not per arc, so the directed loop is the bare count.
	offsets := make([]int64, n+1)
	if both {
		for _, a := range edges {
			offsets[a.U+1]++
			if a.U != a.V {
				offsets[a.V+1]++
			}
		}
	} else {
		for _, a := range edges {
			offsets[a.U+1]++
		}
	}
	for i := int64(0); i < n; i++ {
		offsets[i+1] += offsets[i]
	}

	m := offsets[n]
	adj := make([]int64, m)
	next := make([]int64, n)
	copy(next, offsets[:n])
	var loops int64
	if both {
		// Pass 1: scratch[offsets[v]:offsets[v+1]] holds the sources of
		// v's in-arcs.
		scratch := make([]int64, m)
		for _, a := range edges {
			scratch[next[a.V]] = a.U
			next[a.V]++
			if a.U != a.V {
				scratch[next[a.U]] = a.V
				next[a.U]++
			}
		}
		// Pass 2: targets in ascending order, each appended to its
		// source's row unless that row already ends with it. Row u is
		// written from offsets[u] on and next[u] ends what is kept of it.
		// A duplicate is stored where the next kept target would go, which
		// is still inside the row: a row holding a duplicate has kept
		// fewer targets than it has room for.
		copy(next, offsets[:n])
		for v := int64(0); v < n; v++ {
			for _, u := range scratch[offsets[v]:offsets[v+1]] {
				i := next[u]
				dup := bit01(i > offsets[u] && adj[i-1] == v)
				adj[i] = v
				next[u] = i + 1 - dup
				loops += bit01(u == v) &^ dup
			}
		}
		// Close the rows up leftward: row u moves from [offsets[u],
		// next[u]) to its new start before offsets[u] takes it.
		var kept int64
		for u := int64(0); u < n; u++ {
			from := offsets[u]
			offsets[u] = kept
			kept += int64(copy(adj[kept:], adj[from:next[u]]))
		}
		offsets[n] = kept
	} else {
		for _, a := range edges {
			adj[next[a.U]] = a.V
			next[a.U]++
		}
		// Each row is sorted, while it is in cache, and compacted leftward
		// in one pass: row u is read from [start, offsets[u+1]) before
		// offsets[u] takes its new start, and kept never passes the
		// target read. A sorted row's duplicate is the target read just
		// before it; the -1 before a row's first target matches none.
		var kept, start int64
		for u := int64(0); u < n; u++ {
			end := offsets[u+1]
			offsets[u] = kept
			row := adj[start:end]
			if !slices.IsSorted(row) {
				slices.Sort(row)
			}
			prev := int64(-1)
			for _, v := range row {
				dup := bit01(v == prev)
				adj[kept] = v
				kept += 1 - dup
				loops += bit01(u == v) &^ dup
				prev = v
			}
			start = end
		}
		offsets[n] = kept
	}
	return &Graph{n: n, offsets: offsets, adj: adj[:offsets[n]], loops: loops}, nil
}

// bit01 is 1 for true and 0 for false; the compiler makes it a SETcc.
func bit01(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// NumVertices returns the number of vertices n.
func (g *Graph) NumVertices() int64 { return g.n }

// NumArcs returns the number of stored arcs, i.e. the number of nonzeros
// of the adjacency matrix.
func (g *Graph) NumArcs() int64 { return int64(len(g.adj)) }

// NumEdges returns the undirected edge count: off-diagonal arc pairs
// counted once plus self loops. For a symmetric graph this is
// (NumArcs+NumSelfLoops)/2.
func (g *Graph) NumEdges() int64 { return (int64(len(g.adj)) + g.loops) / 2 }

// NumSelfLoops returns the number of self loops.
func (g *Graph) NumSelfLoops() int64 { return g.loops }

// Degree returns the out-degree of v: the row sum of the adjacency matrix,
// counting a self loop once. This matches the d_i used by the paper's
// formulas when the graph is symmetric.
func (g *Graph) Degree(v int64) int64 { return g.offsets[v+1] - g.offsets[v] }

// Degrees returns the degree vector.
func (g *Graph) Degrees() []int64 {
	d := make([]int64, g.n)
	for v := int64(0); v < g.n; v++ {
		d[v] = g.Degree(v)
	}
	return d
}

// MaxDegree returns the maximum degree, or 0 for the empty graph.
func (g *Graph) MaxDegree() int64 {
	var m int64
	for v := int64(0); v < g.n; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Neighbors returns the sorted adjacency row of v. The returned slice
// aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v int64) []int64 {
	return g.adj[g.offsets[v]:g.offsets[v+1]]
}

// HasArc reports whether the arc (u, v) is present, via binary search.
func (g *Graph) HasArc(u, v int64) bool {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	return i < len(row) && row[i] == v
}

// HasSelfLoop reports whether vertex v has a self loop.
func (g *Graph) HasSelfLoop(v int64) bool { return g.HasArc(v, v) }

// ArcIndex returns the position of arc (u,v) in ArcTargets ordering, or -1
// if absent. It is used to align per-arc annotation slices (e.g. edge
// triangle counts) with the CSR layout.
func (g *Graph) ArcIndex(u, v int64) int64 {
	row := g.Neighbors(u)
	i := sort.Search(len(row), func(i int) bool { return row[i] >= v })
	if i < len(row) && row[i] == v {
		return g.offsets[u] + int64(i)
	}
	return -1
}

// Arcs calls f for every stored arc (u, v) in CSR order; f returning false
// stops the iteration early.
func (g *Graph) Arcs(f func(u, v int64) bool) {
	for u := int64(0); u < g.n; u++ {
		for _, v := range g.adj[g.offsets[u]:g.offsets[u+1]] {
			if !f(u, v) {
				return
			}
		}
	}
}

// Edges calls f for every undirected edge exactly once, in canonical
// (u ≤ v) order; f returning false stops early. Arcs with u > v are
// skipped, so on a symmetric graph every edge is visited once.
func (g *Graph) Edges(f func(u, v int64) bool) {
	g.Arcs(func(u, v int64) bool {
		if u > v {
			return true
		}
		return f(u, v)
	})
}

// EdgeList returns all undirected edges in canonical order.
func (g *Graph) EdgeList() []Edge {
	out := make([]Edge, 0, g.NumEdges())
	g.Edges(func(u, v int64) bool {
		out = append(out, Edge{u, v})
		return true
	})
	return out
}

// ArcList returns all arcs in CSR order.
func (g *Graph) ArcList() []Edge {
	out := make([]Edge, len(g.adj))
	for u := int64(0); u < g.n; u++ {
		row := out[g.offsets[u]:g.offsets[u+1]]
		for i, v := range g.Neighbors(u) {
			row[i] = Edge{u, v}
		}
	}
	return out
}

// ArcSlice returns all arcs in CSR order as a flat slice, built once and
// cached on the graph — the plain-loop input the expansion kernel
// (core.TailCursor) iterates, with no callback per arc. The returned
// slice is shared across callers and must not be modified; use ArcList
// for a private copy. Safe for concurrent use.
func (g *Graph) ArcSlice() []Edge {
	g.arcsOnce.Do(func() { g.arcs = g.ArcList() })
	return g.arcs
}

// PackedArcs returns ArcSlice at 8 bytes an arc, u | v<<32 — the
// little-endian dwords [u₀ v₀ u₁ v₁ …], which zero-extend into exactly the
// Edge{U, V} lanes — built once and cached like it; nil when a vertex id
// does not fit 32 bits (packable). Shared, read-only, safe for concurrent use.
func (g *Graph) PackedArcs() []uint64 {
	g.packedOnce.Do(func() {
		if packable(g.n) {
			g.packed = make([]uint64, len(g.adj))
			for i, e := range g.ArcSlice() {
				g.packed[i] = uint64(e.U) | uint64(e.V)<<32
			}
		}
	})
	return g.packed
}

// packable reports whether every vertex id of an n-vertex graph fits 32 bits.
func packable(n int64) bool { return n <= 1<<32 }

// NarrowArcs returns ArcSlice at 4 bytes an arc, u | v<<16 — the
// little-endian halfwords [u₀ v₀ u₁ v₁ …], which zero-extend into exactly
// PackedArcs' dwords — built once and cached like it; nil when a vertex id
// does not fit 16 bits (n > 2¹⁶). Shared, read-only, safe for concurrent use.
func (g *Graph) NarrowArcs() []uint32 {
	g.narrowOnce.Do(func() {
		if g.n <= 1<<16 {
			g.narrow = make([]uint32, len(g.adj))
			for i, e := range g.ArcSlice() {
				g.narrow[i] = uint32(e.U) | uint32(e.V)<<16
			}
		}
	})
	return g.narrow
}

// RowOffsets returns the CSR row boundaries (length n+1): the arcs of
// source u are ArcSlice()[off[u]:off[u+1]], empty for an isolated
// vertex. It is how a reader of ArcSlice finds where a run of equal
// sources ends without scanning for it. The slice aliases internal
// storage and must not be modified.
func (g *Graph) RowOffsets() []int64 { return g.offsets }

// IsSymmetric reports whether for every arc (u,v) the reverse arc (v,u) is
// also present, i.e. the graph is undirected.
func (g *Graph) IsSymmetric() bool {
	sym := true
	g.Arcs(func(u, v int64) bool {
		if !g.HasArc(v, u) {
			sym = false
			return false
		}
		return true
	})
	return sym
}

// Equal reports whether g and h have identical vertex counts and arc sets.
func (g *Graph) Equal(h *Graph) bool {
	if g.n != h.n || len(g.adj) != len(h.adj) {
		return false
	}
	for i := range g.offsets {
		if g.offsets[i] != h.offsets[i] {
			return false
		}
	}
	for i := range g.adj {
		if g.adj[i] != h.adj[i] {
			return false
		}
	}
	return true
}

// String returns a short description like "graph{n=5 m=7 loops=2}".
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d loops=%d}", g.n, g.NumEdges(), g.loops)
}
