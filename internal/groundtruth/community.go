package groundtruth

import "kronlab/internal/analytics"

// CommunityKron computes the exact ground-truth CommunityStats of the
// Kronecker community S_C = S_A ⊗ S_B in C = (A+I) ⊗ (B+I) from factor
// community statistics only (Thm. 6):
//
//	m_in(S_C)  = 2·m_in(S_A)·m_in(S_B) + m_in(S_A)·|S_B| + |S_A|·m_in(S_B)
//	m_out(S_C) = m_out(S_A)·(½·m_out(S_B) + |S_B| + 2·m_in(S_B))
//	           + m_out(S_B)·(½·m_out(S_A) + |S_A| + 2·m_in(S_A))
//
// Both factors must be loop-free; the +I loops are supplied by the
// construction and excluded from edge counts (C − I_C convention).
func CommunityKron(a, b *Factor, sa, sb analytics.CommunityStats) analytics.CommunityStats {
	nC := a.N() * b.N()
	sizeC := sa.Size * sb.Size
	mIn := 2*sa.MIn*sb.MIn + sa.MIn*sb.Size + sa.Size*sb.MIn
	// The two ½·m_out products merge into a single m_out(S_A)·m_out(S_B).
	mOut := sa.MOut*sb.MOut + sa.MOut*(sb.Size+2*sb.MIn) + sb.MOut*(sa.Size+2*sa.MIn)
	cs := analytics.CommunityStats{Size: sizeC, MIn: mIn, MOut: mOut}
	if sizeC >= 2 {
		cs.RhoIn = 2 * float64(mIn) / float64(sizeC*(sizeC-1))
	}
	if sizeC >= 1 && sizeC < nC {
		cs.RhoOut = float64(mOut) / float64(sizeC*(nC-sizeC))
	}
	return cs
}

// CommunitiesKron computes ground-truth stats for the whole Kronecker
// partition Π_C = Π_A ⊗ Π_B (Def. 16) from factor partitions, ordered
// with the B index varying fastest (matching core.KronPartition).
func CommunitiesKron(a, b *Factor, pa, pb [][]int64, statsA, statsB []analytics.CommunityStats) []analytics.CommunityStats {
	out := make([]analytics.CommunityStats, 0, len(pa)*len(pb))
	for ai := range pa {
		for bi := range pb {
			out = append(out, CommunityKron(a, b, statsA[ai], statsB[bi]))
		}
	}
	return out
}

// RhoInLowerBound returns the Cor. 6 bound
// ρ_in(S_C) ≥ θ·ρ_in(S_A)·ρ_in(S_B) with
// θ = (|S_A|−1)(|S_B|−1)/(|S_A||S_B|−1) ≥ 1/3, valid for |S_A|,|S_B| > 1.
func RhoInLowerBound(sa, sb analytics.CommunityStats) float64 {
	return Theta(sa.Size, sb.Size) * sa.RhoIn * sb.RhoIn
}

// RhoOutUpperBound returns a provable version of the Cor. 7 scaling law
// ρ_out(S_C) ≤ const(ω)·Ω·ρ_out(S_A)·ρ_out(S_B), requiring the paper's
// hypothesis m_out(S_A) ≥ |S_A| and m_out(S_B) ≥ |S_B|.
//
// NOTE — deviation from the paper as printed. With
// ω = max(m_in(S_A)/m_out(S_A), m_in(S_B)/m_out(S_B)), bounding each term
// of Thm. 6's m_out(S_C) by the hypothesis gives
//
//	m_out(S_C) ≤ (3 + 4ω)·m_out(S_A)·m_out(S_B),
//
// not the paper's (1 + 3ω) — e.g. two communities with m_in = 0,
// m_out = |S| give m_out(S_C) near 3·m_out(S_A)·m_out(S_B) > 1·…
// Likewise the exact size-ratio factor relating ρ_out(S_C) to the product
// of factor densities is
//
//	Ω = (n_A·n_B − |S_A||S_B|) / ((n_A − |S_A|)·(n_B − |S_B|)),
//
// for which the paper's (1+s)/(1−s) with s = |S_A||S_B|/(n_A n_B) is a
// valid approximation only when |S_A| ≪ n_A and |S_B| ≪ n_B (both
// expressions → 1). The paper's qualitative claim — external density is
// controlled from above by ρ_out(S_A)·ρ_out(S_B) times a modest factor —
// survives intact; this function returns the tight corrected bound, which
// the tests verify is an actual upper bound on the exact Thm. 6 density.
func RhoOutUpperBound(a, b *Factor, sa, sb analytics.CommunityStats) float64 {
	omega := float64(sa.MIn) / float64(sa.MOut)
	if w := float64(sb.MIn) / float64(sb.MOut); w > omega {
		omega = w
	}
	num := float64(a.N()*b.N() - sa.Size*sb.Size)
	den := float64((a.N() - sa.Size) * (b.N() - sb.Size))
	return (3 + 4*omega) * (num / den) * sa.RhoOut * sb.RhoOut
}

// NumCommunities returns |Π_C| = |Π_A|·|Π_B| (Sec. I table).
func NumCommunities(pa, pb [][]int64) int64 {
	return int64(len(pa)) * int64(len(pb))
}
