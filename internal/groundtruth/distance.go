package groundtruth

import "kronlab/internal/analytics"

// HopsBoundsAt returns the Thm. 5 sandwich for C = A ⊗ B when A has full
// self loops and B is merely undirected:
//
//	max{hops_A, hops_B} ≤ hops_C(p,q) ≤ max{hops_A, hops_B} + 1.
//
// It panics when A lacks a loop, and reads the max law over B whatever B's
// loops.
func HopsBoundsAt(a, b *Factor, p, q int64) (lo, hi int64) {
	requireLoopedA("Thm. 5", "hops bounds", a)
	i, k := p/b.N(), p%b.N()
	j, l := q/b.N(), q%b.N()
	return bounds(hopsFrom([]*Factor{a, b}, []int64{i, k})([]int64{j, l}))
}

// DiameterBounds returns the Cor. 5 sandwich for A with full self loops
// and B merely undirected:
// max{diam_A, diam_B} ≤ diam(G_C) ≤ max{diam_A, diam_B} + 1.
// It panics when A lacks a loop.
func DiameterBounds(a, b *Factor) (lo, hi int64) {
	requireLoopedA("Cor. 5", "diameter bounds", a)
	return bounds(value(diameter([]*Factor{a, b})))
}

// requireLoopedA holds A to Thm. 5's and Cor. 5's hypothesis: full self
// loops on A alone.
func requireLoopedA(formula, name string, a *Factor) {
	(&Law{Name: name, Formula: formula, Takes: FullLoops}).require([]*Factor{a}, nil, nil)
}

// bounds returns the ±1 sandwich [m, m+1] of Thm. 5 and Cor. 5 around
// the max law's m, Unreachable on both sides when m is.
func bounds(m int64) (lo, hi int64) {
	if m == analytics.Unreachable {
		return analytics.Unreachable, analytics.Unreachable
	}
	return m, m + 1
}

// ClosenessAt returns ζ_C(p) by the direct double sum of Thm. 4:
// ζ_C(p) = Σ_j Σ_l 1/max{hops_A(i,j), hops_B(k,l)}, needing only rows
// hops_A(i,·) and hops_B(k,·), one sweep each over the factor graphs — no
// distance tier, O(n_A+n_B) storage, O(n_A·n_B) time. Unreachable pairs
// contribute 0. It is the reference ChainClosenessAt is held to.
func ClosenessAt(a, b *Factor, p int64) float64 {
	i, k := p/b.N(), p%b.N()
	rowA, rowB := analytics.Hops(a.G, i), analytics.Hops(b.G, k)
	var s float64
	for _, ha := range rowA {
		for _, hb := range rowB {
			if ha != analytics.Unreachable && hb != analytics.Unreachable {
				s += 1 / float64(max(ha, hb))
			}
		}
	}
	return s
}
