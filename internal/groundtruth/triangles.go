package groundtruth

import "kronlab/internal/core"

// --- Loop-free factors, C = A ⊗ B (results from [11], restated in the
// --- paper's Sec. I scaling-law table) ---

// EdgeTrianglesAt returns Δ_pq for the product edge (p,q) of C = A ⊗ B
// with loop-free factors: Δ_C = Δ_A ⊗ Δ_B, i.e. Δ_pq = Δ_ij·Δ_kl.
func EdgeTrianglesAt(a, b *Factor, p, q int64) int64 {
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	j, l := ix.Split(q)
	return a.EdgeTri(i, j) * b.EdgeTri(k, l)
}

// --- Full self loops in both factors, C = (A+I) ⊗ (B+I), with A and B
// --- loop-free (Sec. IV-A; Cor. 1 and Cor. 2) ---

// VertexTrianglesFullLoopsAt returns t_p for p = γ(i,k) of
// C = (A+I)⊗(B+I) (Cor. 1):
//
//	t_p = 2·t_i·t_k + 3·(t_i·d_k + d_i·d_k + d_i·t_k) + t_i + t_k.
func VertexTrianglesFullLoopsAt(a, b *Factor, p int64) int64 {
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	ti, di := a.Tri.Vertex[i], a.Deg[i]
	tk, dk := b.Tri.Vertex[k], b.Deg[k]
	return 2*ti*tk + 3*(ti*dk+di*dk+di*tk) + ti + tk
}

// VertexTrianglesFullLoops materializes the Cor. 1 vector for all product
// vertices. Both factors must be loop-free (the loops are added by the
// construction itself).
func VertexTrianglesFullLoops(a, b *Factor) []int64 {
	a.RequireNoSelfLoops("Cor. 1")
	b.RequireNoSelfLoops("Cor. 1")
	ix := core.NewIndex(b.N())
	out := make([]int64, a.N()*b.N())
	for i := int64(0); i < a.N(); i++ {
		for k := int64(0); k < b.N(); k++ {
			out[ix.Gamma(i, k)] = VertexTrianglesFullLoopsAt(a, b, ix.Gamma(i, k))
		}
	}
	return out
}

// EdgeTrianglesFullLoopsAt returns Δ_pq for a non-loop edge (p,q) of
// C = (A+I)⊗(B+I) with loop-free factors (Cor. 2).
//
// NOTE — deviation from the paper as printed: expanding the appendix's
// (C² − 2C + I) ∘ (C − I) by cases gives
//
//	i≠j, k≠l:  Δ_pq = Δ_ij·Δ_kl + 2·(Δ_ij + Δ_kl) + 2
//	i=j, k≠l:  Δ_pq = Δ_kl·(d_i + 1) + 2·d_i
//	i≠j, k=l:  Δ_pq = Δ_ij·(d_k + 1) + 2·d_k
//
// whereas the paper's single displayed formula adds the same trailing
// "+2(d_i δ(i,j) + d_k δ(k,l) + 1)" in every case, overcounting the
// diagonal cases by 2 (e.g. A = B = K₂ gives C = K₄ with loops, where
// every edge is in exactly 2 triangles, but the printed formula yields 4
// on edges with i=j). The case expansion below is validated against exact
// counting on materialized products in this package's tests.
func EdgeTrianglesFullLoopsAt(a, b *Factor, p, q int64) int64 {
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	j, l := ix.Split(q)
	switch {
	case i != j && k != l:
		dij, dkl := a.EdgeTri(i, j), b.EdgeTri(k, l)
		return dij*dkl + 2*(dij+dkl) + 2
	case i == j && k != l:
		return b.EdgeTri(k, l)*(a.Deg[i]+1) + 2*a.Deg[i]
	case i != j && k == l:
		return a.EdgeTri(i, j)*(b.Deg[k]+1) + 2*b.Deg[k]
	default:
		panic("groundtruth: Cor. 2 applies to edges with p ≠ q, got a self loop")
	}
}

// GlobalTrianglesFullLoops returns τ for C = (A+I)⊗(B+I) by summing the
// Cor. 1 vertex vector: τ = Σ_p t_p / 3. Still polynomial in the factors
// only; closed form in factor aggregates:
//
//	3τ = 2·T_A·T_B + 3·(T_A·D_B + D_A·D_B + D_A·T_B) + T_A·n_B + n_A·T_B
//
// where T = Σ t_i and D = Σ d_i over each factor.
func GlobalTrianglesFullLoops(a, b *Factor) int64 {
	var ta, da, tb, db int64
	for i := int64(0); i < a.N(); i++ {
		ta += a.Tri.Vertex[i]
		da += a.Deg[i]
	}
	for k := int64(0); k < b.N(); k++ {
		tb += b.Tri.Vertex[k]
		db += b.Deg[k]
	}
	sum := 2*ta*tb + 3*(ta*db+da*db+da*tb) + ta*b.N() + a.N()*tb
	return sum / 3
}
