package groundtruth

import (
	"fmt"
	"math"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// CommunityKron computes the exact ground-truth CommunityStats of the
// Kronecker community S_1⊗…⊗S_k in ⊗(A_d+I) of the loop-free factors gs
// from each factor community's statistics ss[d] alone: Thm. 6, stated
// for C = (A+I)⊗(B+I), folded over the chain. ⊗ is associative and
// (A+I)⊗(B+I) = C′+I with C′ loop-free, so each step is Thm. 6 with A
// the product so far:
//
//	m_in(S_C)  = 2·m_in(S_A)·m_in(S_B) + m_in(S_A)·|S_B| + |S_A|·m_in(S_B)
//	m_out(S_C) = m_out(S_A)·(½·m_out(S_B) + |S_B| + 2·m_in(S_B))
//	           + m_out(S_B)·(½·m_out(S_A) + |S_A| + 2·m_in(S_A))
//
// ρ_in and ρ_out are read off the final counts and n_C = Π n_d. The +I
// loops are supplied by the construction and excluded from edge counts
// (C − I_C convention). A count that overflows int64 is an error.
func CommunityKron(gs []*graph.Graph, ss []analytics.CommunityStats) (analytics.CommunityStats, error) {
	ok := true
	mul := func(x, y int64) int64 { p, fits := core.CheckedMul(x, y); ok = ok && fits; return p }
	add := func(x, y int64) int64 { ok = ok && x <= math.MaxInt64-y; return x + y }
	a, nC := ss[0], gs[0].NumVertices()
	for d := 1; d < len(gs); d++ {
		b := ss[d]
		a = analytics.CommunityStats{
			Size: mul(a.Size, b.Size),
			MIn:  add(add(mul(2, mul(a.MIn, b.MIn)), mul(a.MIn, b.Size)), mul(a.Size, b.MIn)),
			// The two ½·m_out products merge into a single m_out(S_A)·m_out(S_B).
			MOut: add(add(mul(a.MOut, b.MOut), mul(a.MOut, add(b.Size, mul(2, b.MIn)))), mul(b.MOut, add(a.Size, mul(2, a.MIn)))),
		}
		if nC = mul(nC, gs[d].NumVertices()); !ok {
			return analytics.CommunityStats{}, overflow("Thm. 6 count", d)
		}
	}
	return a.WithDensities(nC), nil
}

// CommunitiesKron computes CommunityKron for every community of the
// Kronecker partition Π_1⊗…⊗Π_k (Def. 16), from stats[d] =
// analytics.Communities(gs[d], Π_d), in core.KronPartition's order: the
// last factor's index varies fastest, as in a core.ChainIndex.
func CommunitiesKron(gs []*graph.Graph, stats [][]analytics.CommunityStats) ([]analytics.CommunityStats, error) {
	dims := make([]int64, len(stats))
	for d, s := range stats {
		dims[d] = int64(len(s))
	}
	ci, err := core.NewChainIndex(dims)
	if err != nil {
		return nil, fmt.Errorf("groundtruth: Kronecker partition: %w", err)
	}
	out := make([]analytics.CommunityStats, ci.NumVertices())
	coords, ss := make([]int64, len(stats)), make([]analytics.CommunityStats, len(stats))
	for x := range out {
		for d, i := range ci.SplitInto(int64(x), coords) {
			ss[d] = stats[d][i]
		}
		if out[x], err = CommunityKron(gs, ss); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RhoInLowerBound returns the Cor. 6 bound
// ρ_in(S_C) ≥ θ·ρ_in(S_A)·ρ_in(S_B) with
// θ = (|S_A|−1)(|S_B|−1)/(|S_A||S_B|−1) ≥ 1/3, valid for |S_A|,|S_B| > 1.
func RhoInLowerBound(sa, sb analytics.CommunityStats) float64 {
	return Theta(sa.Size, sb.Size) * sa.RhoIn * sb.RhoIn
}

// RhoOutUpperBound returns a provable version of the Cor. 7 scaling law
// ρ_out(S_C) ≤ (3+4ω)·Ω·ρ_out(S_A)·ρ_out(S_B) for C = (A+I)⊗(B+I), with
// ω = max(m_in(S_A)/m_out(S_A), m_in(S_B)/m_out(S_B)) and the exact size
// ratio Ω = (n_A·n_B − |S_A||S_B|) / ((n_A − |S_A|)·(n_B − |S_B|)),
// requiring the paper's hypothesis m_out(S) ≥ |S| on both sides. The
// printed (1+3ω) and Ω ≈ (1+s)/(1−s) are not valid bounds (DESIGN §4a).
func RhoOutUpperBound(a, b *graph.Graph, sa, sb analytics.CommunityStats) float64 {
	omega := float64(sa.MIn) / float64(sa.MOut)
	if w := float64(sb.MIn) / float64(sb.MOut); w > omega {
		omega = w
	}
	nA, nB := a.NumVertices(), b.NumVertices()
	num := float64(nA*nB - sa.Size*sb.Size)
	den := float64((nA - sa.Size) * (nB - sb.Size))
	return (3 + 4*omega) * (num / den) * sa.RhoOut * sb.RhoOut
}

// NumCommunities returns |Π_C| = Π_d |Π_d| (Sec. I table) for a product
// whose vertex count fits in int64 (|Π_C| ≤ n_C).
func NumCommunities(parts [][][]int64) int64 {
	n := int64(1)
	for _, p := range parts {
		n *= int64(len(p))
	}
	return n
}
