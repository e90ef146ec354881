// Package groundtruth implements every Kronecker ground-truth formula in
// the paper: degree (d_C = d_A ⊗ d_B), vertex/edge/global triangle counts
// for loop-free factors and for full-self-loop products (Cor. 1, Cor. 2),
// vertex and edge clustering coefficient scaling laws (Thm. 1, Thm. 2),
// hop distance, diameter, eccentricity and closeness centrality
// (Thm. 3–5, Cor. 3–5, including the compressed histogram form of
// Sec. V-B), and internal/external community edge counts and densities
// (Thm. 6, Cor. 6, Cor. 7).
//
// Formulas take factor-level quantities (degrees, triangle counts, hop
// profiles) computed once per factor with internal/analytics; a Factor
// bundles them. NewFactor builds degrees and triangles; WithDistances
// returns a copy that adds the hop profiles, eccentricities and diameter,
// which the distance laws read and panic naming themselves without. A Factor is
// never written after it is returned, so concurrent readers share one.
// Everything here runs in time polynomial in the factor sizes —
// sublinear in |E_C| — which is the paper's point.
package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/graph"
)

// Factor bundles a factor graph with the exact per-factor statistics the
// Kronecker formulas consume. Build one per factor with NewFactor, adding
// the distance tier with WithDistances where a distance law will read it;
// the cost is polynomial in the (small) factor, never in the product.
type Factor struct {
	G   *graph.Graph
	Deg []int64                  // degree vector d
	Tri *analytics.TriangleStats // t (vertex), Δ (arc), τ (global)

	*distTier // nil unless built by WithDistances
}

// distTier is a factor's distance data: each vertex's cumulative hop
// profile (analytics.HopProfiles), eccentricities, and the diameter. Its
// fields read through a Factor without the tier dereference nil — a
// panic, never a silent 0.
type distTier struct {
	Profile [][]int64
	Ecc     []int64
	Diam    int64
}

// NewFactor computes degrees and triangle statistics for g.
func NewFactor(g *graph.Graph) *Factor {
	return &Factor{
		G:   g,
		Deg: g.Degrees(),
		Tri: analytics.Triangles(g),
	}
}

// WithDistances returns a Factor sharing f's graph, degrees and triangles
// that also holds every vertex's hop profile R_i, eccentricities and
// diameter — the tier the distance laws (Cor. 3–5, Sec. V-B) read. ε_i is
// R_i's last hop when R_i reaches all n vertices, Unreachable otherwise.
// It returns f itself when f already has them. Cost O(n·(n+arcs)) time,
// Σ(ε_i+1) counts.
func (f *Factor) WithDistances() *Factor {
	if f.distTier != nil {
		return f
	}
	t := &distTier{Profile: analytics.HopProfiles(f.G), Ecc: make([]int64, f.N())}
	for i, r := range t.Profile {
		ecc := int64(len(r) - 1)
		if r[ecc] < f.N() {
			ecc = analytics.Unreachable
		}
		t.Ecc[i] = ecc
		t.Diam = analytics.MaxHops(t.Diam, ecc)
	}
	c := *f
	c.distTier = t
	return &c
}

// distances returns f's distance tier, panicking with the law's name when
// f was built without WithDistances — a law never builds it in place.
func (f *Factor) distances(law string) *distTier {
	if f.distTier == nil {
		panic(fmt.Sprintf("groundtruth: %s needs the distance tier; build the factor with WithDistances", law))
	}
	return f.distTier
}

// CostBytes estimates the resident size of f in two parts: base, the CSR
// graph and the degree and triangle vectors, which every copy
// WithDistances makes shares; and distances, the distance tier's
// profiles, Σ(ε_i+1) counts and a slice header a vertex, 0 without the
// tier. kronserve's LRU budgets on these, counting a shared base once.
func (f *Factor) CostBytes() (base, distances int64) {
	n, arcs := f.N(), f.G.NumArcs()
	base = (n+1)*8 + arcs*8  // CSR offsets + adjacency
	base += n * 8            // Deg
	base += n*8 + arcs*8 + 8 // Tri.Vertex, Tri.Arc, Tri.Global
	if f.distTier != nil {
		for _, r := range f.Profile {
			distances += int64(len(r)+3) * 8 // R_i and its header
		}
		distances += n*8 + 8 // Ecc, Diam
	}
	return base, distances
}

// N returns the factor's vertex count.
func (f *Factor) N() int64 { return f.G.NumVertices() }

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
