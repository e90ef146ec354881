package groundtruth

import (
	"math"

	"kronlab/internal/core"
)

// The triangle laws for loop-free factors ([11]) and for ⊗(A_d+I)
// (Cor. 1, Cor. 2), folded over the chain. The +I laws fold because
// (A+I)⊗(B+I) = C′+I with C′ loop-free, so each two-factor law applies
// digit by digit to a small state of the loop-free part accumulated so
// far. Every form takes the loop-free A_d and checks that first.

// requireLoopFree holds every factor to the law's A∘I = O hypothesis.
func requireLoopFree(fs []*Factor, law string) {
	for _, f := range fs {
		f.RequireNoSelfLoops(law)
	}
}

// arith is checked arithmetic on nonnegative counts: an overflow anywhere
// in an expression sets bad.
type arith struct{ bad bool }

func (a *arith) mul(x, y int64) int64 {
	p, ok := core.CheckedMul(x, y)
	a.bad = a.bad || !ok
	return p
}

func (a *arith) add(xs ...int64) int64 {
	var s int64
	for _, x := range xs {
		a.bad = a.bad || s > math.MaxInt64-x
		s += x
	}
	return s
}

// ChainEdgeTrianglesAt returns Δ_pq = Π_d Δ_d(cp[d], cq[d]) for a non-loop
// edge (p,q) of ⊗A_d (Δ_C = Δ_A ⊗ Δ_B by induction), checked.
func ChainEdgeTrianglesAt(fs []*Factor, cp, cq []int64) (int64, error) {
	requireLoopFree(fs, "Δ_C = Π Δ_d")
	return fold(fs, "edge triangle count", func(d int, f *Factor) int64 { return f.EdgeTri(cp[d], cq[d]) }, core.CheckedMul)
}

// ChainVertexTrianglesFullLoopsAt returns t_p of ⊗(A_d+I) (Cor. 1 as a
// fold), checked. The state (t′, d′) of the loop-free part takes each
// next digit's (t, d) as
//
//	t′ ← 2t′t + 3(t′d + d′d + d′t) + t′ + t,   d′ ← (d′+1)(d+1) − 1.
func ChainVertexTrianglesFullLoopsAt(fs []*Factor, coords []int64) (int64, error) {
	requireLoopFree(fs, "Cor. 1")
	var a arith
	t, dg := fs[0].Tri.Vertex[coords[0]], fs[0].Deg[coords[0]]
	for d := 1; d < len(fs); d++ {
		td, dd := fs[d].Tri.Vertex[coords[d]], fs[d].Deg[coords[d]]
		t = a.add(a.mul(2, a.mul(t, td)), a.mul(3, a.add(a.mul(t, dd), a.mul(dg, dd), a.mul(dg, td))), t, td)
		if dg = a.mul(dg+1, dd+1) - 1; a.bad {
			return 0, overflow("Cor. 1 vertex triangle count", d)
		}
	}
	return t, nil
}

// ChainGlobalTrianglesFullLoops returns τ of ⊗(A_d+I), checked: Cor. 1
// summed over C in factor aggregates. The state (S_t, S_d, N) — Σ t′,
// Σ d′ and n of the loop-free part — takes each next factor's T = 3τ_d,
// D = arcs_d and n as
//
//	S_t ← 2S_tT + 3(S_tD + S_dD + S_dT) + S_t·n + N·T,
//	S_d ← (S_d+N)(D+n) − N·n,   N ← N·n,   and τ = S_t/3.
func ChainGlobalTrianglesFullLoops(fs []*Factor) (int64, error) {
	requireLoopFree(fs, "Cor. 1")
	var a arith
	st, sd, n := a.mul(3, fs[0].Tri.Global), fs[0].G.NumArcs(), fs[0].N()
	for d := 1; d < len(fs); d++ {
		tt, dd, nd := a.mul(3, fs[d].Tri.Global), fs[d].G.NumArcs(), fs[d].N()
		st, sd, n = a.add(a.mul(2, a.mul(st, tt)), a.mul(3, a.add(a.mul(st, dd), a.mul(sd, dd), a.mul(sd, tt))), a.mul(st, nd), a.mul(n, tt)),
			a.mul(a.add(sd, n), a.add(dd, nd))-a.mul(n, nd), a.mul(n, nd)
		if a.bad {
			return 0, overflow("Cor. 1 triangle count", d)
		}
	}
	return st / 3, nil
}

// ChainEdgeTrianglesFullLoopsAt returns Δ_pq for a non-loop edge (p,q) of
// ⊗(A_d+I) (Cor. 2 as a fold), checked. The state is (Δ′, d′_p, diag):
// the loop-free part's count, p's degree there, and whether p's and q's
// digits so far agree. Each next digit (i, j), with Δ = Δ_d(i,j) and
// d = d_d(i), applies one of Cor. 2's three cases:
//
//	off the diagonal, digit off it:  Δ′ ← Δ′Δ + 2(Δ′ + Δ) + 2
//	on the diagonal, digit off it:   Δ′ ← Δ(d′_p + 1) + 2d′_p
//	off the diagonal, digit on it:   Δ′ ← Δ′(d + 1) + 2d
//
// These are the appendix's (C² − 2C + I) ∘ (C − I) expanded by cases; the
// paper's printed formula overcounts the diagonal ones by 2 (on
// (K₂+I)⊗(K₂+I) = K₄ with loops it gives 4 where every edge is in 2).
func ChainEdgeTrianglesFullLoopsAt(fs []*Factor, cp, cq []int64) (int64, error) {
	requireLoopFree(fs, "Cor. 2")
	var a arith
	tri, dg, diag := fs[0].EdgeTri(cp[0], cq[0]), fs[0].Deg[cp[0]], cp[0] == cq[0]
	for d := 1; d < len(fs); d++ {
		i, j := cp[d], cq[d]
		td, dd := fs[d].EdgeTri(i, j), fs[d].Deg[i]
		switch {
		case diag && i == j: // p and q still agree: no edge yet
		case diag:
			tri = a.add(a.mul(td, dg+1), a.mul(2, dg))
		case i == j:
			tri = a.add(a.mul(tri, dd+1), a.mul(2, dd))
		default:
			tri = a.add(a.mul(tri, td), a.mul(2, a.add(tri, td)), 2)
		}
		diag = diag && i == j
		if dg = a.mul(dg+1, dd+1) - 1; a.bad {
			return 0, overflow("Cor. 2 edge triangle count", d)
		}
	}
	if diag {
		panic("groundtruth: Cor. 2 applies to edges with p ≠ q, got a self loop")
	}
	return tri, nil
}
