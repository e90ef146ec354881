package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// ProductComponents returns the ground-truth number of connected
// components of C = A ⊗ B for CONNECTED undirected factors with at least
// one edge each, by Weichsel's theorem (the paper's ref [1]): the tensor
// product of two connected graphs is connected iff at least one factor
// has an odd closed walk (is non-bipartite, counting self loops); if both
// are bipartite the product splits into exactly 2 components.
//
// The full-self-loop construction (A+I)⊗(B+I) is therefore always
// connected for connected factors — the design reason the paper's
// distance formulas assume loops.
func ProductComponents(a, b *graph.Graph) (int64, error) {
	if !a.IsConnected() || !b.IsConnected() {
		return 0, fmt.Errorf("groundtruth: Weichsel's theorem needs connected factors")
	}
	if a.NumEdges() == 0 || b.NumEdges() == 0 {
		return 0, fmt.Errorf("groundtruth: factors need at least one edge")
	}
	if analytics.IsBipartite(a) && analytics.IsBipartite(b) {
		return 2, nil
	}
	return 1, nil
}

// EigenvectorCentralityKron returns the ground-truth eigenvector
// centrality of C = A ⊗ B from factor centralities: if x_A and x_B are
// the (unit) Perron vectors of A and B, then x_A ⊗ x_B is a unit
// eigenvector of A ⊗ B with eigenvalue λ_A·λ_B, and for connected
// non-bipartite factors it is C's Perron vector restricted to the
// component containing the mass — so eigenvector centrality is exactly
// controllable, the counterpart of the paper's distance-based centrality
// formulas for spectral centrality. iters is forwarded to the factor
// power iterations.
func EigenvectorCentralityKron(a, b *Factor, iters int) (vec []float64, lambda float64) {
	xa, la := analytics.EigenvectorCentrality(a.G, iters)
	xb, lb := analytics.EigenvectorCentrality(b.G, iters)
	ix := core.NewIndex(b.N())
	vec = make([]float64, a.N()*b.N())
	for i, va := range xa {
		for k, vb := range xb {
			vec[ix.Gamma(int64(i), int64(k))] = va * vb
		}
	}
	return vec, la * lb
}
