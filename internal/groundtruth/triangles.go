package groundtruth

import (
	"math"

	"kronlab/internal/core"
)

// The triangle laws for loop-free factors ([11]) and for ⊗(A_d+I)
// (Cor. 1, Cor. 2), folded over the chain. The +I laws fold because
// (A+I)⊗(B+I) = C′+I with C′ loop-free, so each two-factor law applies
// digit by digit to a small state of the loop-free part accumulated so
// far. Every form takes the loop-free A_d; its row checks that first.

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

// globalTriangles is τ_C = 6^{k−1}·Π τ_d, by induction on
// τ_C = 6·τ_A·τ_B.
func globalTriangles(fs []*Factor) (int64, error) {
	return fold(fs, "triangle count", func(_ int, f *Factor) int64 { return f.Tri.Global }, scaled(6))
}

// edgeTriangles is Δ_pq = Π_d Δ_d(cp[d], cq[d]), by induction on
// Δ_C = Δ_A ⊗ Δ_B.
func edgeTriangles(fs []*Factor, cp, cq []int64) (int64, error) {
	return fold(fs, "edge triangle count", func(d int, f *Factor) int64 { return f.EdgeTri(cp[d], cq[d]) }, core.CheckedMul)
}

// cor1Step is Cor. 1 as a step over the loop-free part's state x =
// (t′, d′) and a digit's y = (t, d):
//
//	t′ ← 2t′t + 3(t′d + d′d + d′t) + t′ + t,   d′ ← (d′+1)(d+1) − 1.
//
// It reports false on overflow.
func cor1Step(x, y [2]int64) ([2]int64, bool) {
	var a arith
	t, dg, td, dd := x[0], x[1], y[0], y[1]
	t = a.add(a.mul(2, a.mul(t, td)), a.mul(3, a.add(a.mul(t, dd), a.mul(dg, dd), a.mul(dg, td))), t, td)
	dg = a.mul(dg+1, dd+1) - 1
	return [2]int64{t, dg}, !a.bad
}

// cor1At is t_p of ⊗(A_d+I): Cor. 1 as a fold of cor1Step over p's digits.
func cor1At(fs []*Factor, coords []int64) (int64, error) {
	x, err := fold(fs, "Cor. 1 vertex triangle count", func(d int, f *Factor) [2]int64 {
		return [2]int64{f.Tri.Vertex[coords[d]], f.Deg[coords[d]]}
	}, cor1Step)
	return x[0], err
}

// cor1Histogram is the t histogram of ⊗(A_d+I). t′ depends on each
// digit's (t, d) pair alone, so it folds the factors' joint (t, d)
// histograms under cor1Step and then counts each t′ — cost the product of
// the factors' distinct-pair counts, nothing n_C long.
func cor1Histogram(fs []*Factor) (map[int64]int64, error) {
	joint, err := foldHistograms(fs, "Cor. 1 vertex triangle histogram", func(f *Factor) map[[2]int64]int64 {
		h := map[[2]int64]int64{}
		for i, t := range f.Tri.Vertex {
			h[[2]int64{t, f.Deg[i]}]++
		}
		return h
	}, cor1Step)
	if err != nil {
		return nil, err
	}
	out := map[int64]int64{}
	for x, c := range joint {
		out[x[0]] += c // the counts sum to n_C
	}
	return out, nil
}

// cor1Global is τ of ⊗(A_d+I): Cor. 1 summed over C in factor
// aggregates. The state (S_t, S_d, N) — Σ t′, Σ d′ and n of the loop-free
// part — takes each next factor's T = 3τ_d, D = arcs_d and n as
//
//	S_t ← 2S_tT + 3(S_tD + S_dD + S_dT) + S_t·n + N·T,
//	S_d ← (S_d+N)(D+n) − N·n,   N ← N·n,   and τ = S_t/3.
func cor1Global(fs []*Factor) (int64, error) {
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

// cor2At is Δ_pq for a non-loop edge (p,q) of ⊗(A_d+I), Cor. 2 as a
// fold. The state is (Δ′, d′_p, diag): the loop-free part's count, p's
// degree there, and whether p's and q's digits so far agree. Each next
// digit (i, j), with Δ = Δ_d(i,j) and d = d_d(i), applies one of Cor. 2's
// three cases:
//
//	off the diagonal, digit off it:  Δ′ ← Δ′Δ + 2(Δ′ + Δ) + 2
//	on the diagonal, digit off it:   Δ′ ← Δ(d′_p + 1) + 2d′_p
//	off the diagonal, digit on it:   Δ′ ← Δ′(d + 1) + 2d
//
// These are the appendix's (C² − 2C + I) ∘ (C − I) expanded by cases; the
// paper's printed formula overcounts the diagonal ones by 2 (on
// (K₂+I)⊗(K₂+I) = K₄ with loops it gives 4 where every edge is in 2).
func cor2At(fs []*Factor, cp, cq []int64) (int64, error) {
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
	return tri, nil
}
