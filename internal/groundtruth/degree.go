package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
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
