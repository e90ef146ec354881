package analytics

import "kronlab/internal/graph"

// CommunityStats holds internal/external edge counts and densities for a
// vertex set S (Def. 13). Counts ignore self loops, matching the paper's
// use of C − I_C in Thm. 6.
type CommunityStats struct {
	Size   int64   // |S|
	MIn    int64   // m_in(S): undirected edges with both endpoints in S
	MOut   int64   // m_out(S): arcs from S to V∖S
	RhoIn  float64 // 2·m_in / (|S|·(|S|−1)), 0 when |S| < 2
	RhoOut float64 // m_out / (|S|·(n−|S|)), 0 when S is everything or empty
}

// Community computes internal/external edge counts and densities of the
// vertex set s in g. Cost is O(Σ_{v∈S} d_v).
func Community(g *graph.Graph, s []int64) CommunityStats {
	in := make(map[int64]bool, len(s))
	for _, v := range s {
		in[v] = true
	}
	var arcsInside, arcsOut int64
	for _, v := range s {
		for _, w := range g.Neighbors(v) {
			if w == v {
				continue // self loops excluded (C − I_C)
			}
			if in[w] {
				arcsInside++
			} else {
				arcsOut++
			}
		}
	}
	return CommunityStats{Size: int64(len(s)), MIn: arcsInside / 2, MOut: arcsOut}.WithDensities(g.NumVertices())
}

// WithDensities returns cs with ρ_in and ρ_out read off its counts, for a
// community of an n-vertex graph.
func (cs CommunityStats) WithDensities(n int64) CommunityStats {
	cs.RhoIn, cs.RhoOut = 0, 0
	if cs.Size >= 2 {
		cs.RhoIn = 2 * float64(cs.MIn) / (float64(cs.Size) * float64(cs.Size-1))
	}
	if cs.Size >= 1 && cs.Size < n {
		cs.RhoOut = float64(cs.MOut) / (float64(cs.Size) * float64(n-cs.Size))
	}
	return cs
}

// Communities computes CommunityStats for every set of a partition.
func Communities(g *graph.Graph, partition [][]int64) []CommunityStats {
	out := make([]CommunityStats, len(partition))
	for i, s := range partition {
		out[i] = Community(g, s)
	}
	return out
}

// IsPartition reports whether the sets cover every vertex of g exactly
// once (Def. 15).
func IsPartition(g *graph.Graph, partition [][]int64) bool {
	seen := make([]bool, g.NumVertices())
	var covered int64
	for _, s := range partition {
		for _, v := range s {
			if v < 0 || v >= g.NumVertices() || seen[v] {
				return false
			}
			seen[v] = true
			covered++
		}
	}
	return covered == g.NumVertices()
}
