package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/graph"
)

// ProductComponents returns the ground-truth number of connected
// components of ⊗A_d for CONNECTED undirected factors with at least one
// edge each, by Weichsel's theorem (the paper's ref [1]) folded over the
// chain: the tensor product of two connected graphs is connected iff at
// least one factor has an odd closed walk (is non-bipartite, counting
// self loops); if both are bipartite it splits into exactly 2
// components, each connected and bipartite; and a product with a
// bipartite factor is bipartite. So b bipartite factors give
// 2^max(b−1, 0) components.
//
// The full-self-loop construction ⊗(A_d+I) is therefore always connected
// for connected factors — the design reason the paper's distance
// formulas assume loops.
func ProductComponents(gs []*graph.Graph) (int64, error) { return components(gs, false) }

// ProductComponentsPlusI is ProductComponents of ⊗(A_d+I), read off the
// A_d: a loop is an edge and an odd closed walk, so it is 1 for connected A_d.
func ProductComponentsPlusI(gs []*graph.Graph) (int64, error) { return components(gs, true) }

func components(gs []*graph.Graph, plusI bool) (int64, error) {
	b := 0
	bipartite := make(map[*graph.Graph]bool, len(gs)) // a power's factor is swept once
	for d, g := range gs {
		if !g.IsConnected() || !plusI && g.NumEdges() == 0 {
			return 0, fmt.Errorf("groundtruth: Weichsel's theorem needs connected factors with an edge; factor %d is not", d)
		}
		if plusI {
			continue
		}
		is, ok := bipartite[g]
		if !ok {
			is = analytics.IsBipartite(g)
			bipartite[g] = is
		}
		if is {
			b++
		}
	}
	if b > 63 {
		return 0, overflow("component count", len(gs)-1)
	}
	return 1 << max(b-1, 0), nil
}
