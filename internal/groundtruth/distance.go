package groundtruth

import "kronlab/internal/analytics"

// ClosenessAt returns ζ_C(p) by the direct double sum of Thm. 4:
// ζ_C(p) = Σ_j Σ_l 1/max{hops_A(i,j), hops_B(k,l)}, needing only rows
// hops_A(i,·) and hops_B(k,·), one sweep each over the factor graphs — no
// distance tier, O(n_A+n_B) storage, O(n_A·n_B) time. Unreachable pairs
// contribute 0. It is the reference ChainClosenessAt is held to.
func ClosenessAt(a, b *Factor, p int64) float64 {
	i, k := p/b.N(), p%b.N()
	rowA, rowB := a.hops(i), b.hops(k)
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
