// Package groundtruth implements every Kronecker ground-truth formula in
// the paper: degree (d_C = d_A ⊗ d_B), vertex/edge/global triangle counts
// for loop-free factors and for full-self-loop products (Cor. 1, Cor. 2),
// vertex and edge clustering coefficient scaling laws (Thm. 1, Thm. 2),
// hop distance, diameter, eccentricity and closeness centrality
// (Thm. 3, Cor. 3, Cor. 4, Thm. 4, including the compressed histogram
// form of Sec. V-B), and internal/external community edge counts and
// densities (Thm. 6, Cor. 6, Cor. 7).
//
// Formulas take factor-level quantities (degrees, triangle counts,
// eccentricities) computed once per factor with internal/analytics, and
// hop rows swept from a vertex's digits; a Factor bundles the former.
// NewFactor(g, tiers) builds g's degrees and only the tiers asked:
// Triangles, Distances, both or neither; Summarize(g, true, tiers)
// builds those of g+I from g itself, the loops implied. Each row of Laws
// names the tiers it reads, Bind asks its Source for exactly those, and a
// row handed a factor without one refuses it by name. A Factor is never
// written after it is returned, so concurrent readers share one.
// Everything here runs in time polynomial in the factor sizes — sublinear
// in |E_C| — which is the paper's point.
package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/graph"
)

// Tiers is a set of a Factor's parts beyond its graph and degrees, each
// built only when asked.
type Tiers uint8

const (
	// Triangles is t (vertex), Δ (arc) and τ (global): analytics.Triangles.
	Triangles Tiers = 1 << iota
	// Distances is every vertex's eccentricity and the diameter, by ref
	// [3]'s bound rule (analytics.PrunedEccentricities): a sweep per
	// source it picks, at most n, and n+1 counts.
	Distances
)

// Factor bundles a factor graph with the exact per-factor statistics the
// Kronecker formulas consume; the cost is polynomial in the (small)
// factor, never in the product.
type Factor struct {
	G           *graph.Graph
	loops, arcs int64                    // of the graph described: G, or G+I read off G
	Deg         []int64                  // degree vector d
	Tri         *analytics.TriangleStats // t, Δ, τ; nil without Triangles

	*distTier // nil without Distances
}

// distTier is a factor's distance data: ε_i = max_j hops(i, j),
// Unreachable on a factor that is not connected, and the largest of them.
type distTier struct {
	Ecc  []int64
	Diam int64
}

// NewFactor computes g's degrees and the tiers asked.
func NewFactor(g *graph.Graph, tiers Tiers) *Factor { return Summarize(g, false, tiers) }

// Summarize builds the summary a Source returns for g: a Factor of g, or
// of g+I when plusI, with the tiers asked. The +I is read off g, whose BFS
// distances between distinct vertices and triangle counts ignore loops:
// only the degrees, arc and loop counts and hop diagonals differ.
func Summarize(g *graph.Graph, plusI bool, tiers Tiers) *Factor {
	f := &Factor{G: g, loops: g.NumSelfLoops(), arcs: g.NumArcs(), Deg: g.Degrees()}
	if plusI {
		for v := range f.Deg {
			if f.loops == 0 || !g.HasSelfLoop(int64(v)) {
				f.Deg[v]++ // the loop the +I adds
			}
		}
		f.arcs, f.loops = f.arcs+f.N()-f.loops, f.N()
	}
	if tiers&Triangles != 0 {
		f.Tri = analytics.Triangles(g)
	}
	if tiers&Distances != 0 {
		// The rule needs a symmetric g, which every loader builds with
		// graph.NewUndirected.
		t := &distTier{Ecc: analytics.PrunedEccentricities(g, plusI)}
		for _, e := range t.Ecc {
			t.Diam = analytics.MaxHops(t.Diam, e)
		}
		f.distTier = t
	}
	return f
}

// tiers returns the tiers f holds.
func (f *Factor) tiers() Tiers {
	var t Tiers
	if f.Tri != nil {
		t |= Triangles
	}
	if f.distTier != nil {
		t |= Distances
	}
	return t
}

// CostBytes estimates the bytes Summarize built for f: the degree vector
// and each tier it holds, not the graph it was handed. kronserve's LRU
// budgets on it.
func (f *Factor) CostBytes() int64 {
	n := f.N()
	b := n * 8 // Deg
	if f.Tri != nil {
		b += n*8 + f.G.NumArcs()*8 + 8 // Tri.Vertex, Tri.Arc, Tri.Global
	}
	if f.distTier != nil {
		b += n*8 + 8 // Ecc, Diam
	}
	return b
}

// N returns the factor's vertex count.
func (f *Factor) N() int64 { return f.G.NumVertices() }

// hops returns the factor's hop row from src; with every loop, 1 on the diagonal.
func (f *Factor) hops(src int64) []int64 {
	h := analytics.Hops(f.G, src)
	if f.loops == f.N() {
		h[src] = 1
	}
	return h
}

// EdgeTri returns Δ_ij for the factor, with the Cor. 2 convention that
// diagonal entries (i = j) are 0 for loop-free factors.
func (f *Factor) EdgeTri(i, j int64) int64 {
	if i == j {
		return 0
	}
	idx := f.G.ArcIndex(i, j)
	if idx < 0 {
		panic(fmt.Sprintf("groundtruth: (%d,%d) is not an arc of the factor", i, j))
	}
	return f.Tri.Arc[idx]
}
