package groundtruth

import (
	"kronlab/internal/analytics"
	"kronlab/internal/core"
)

// HopsBoundsAt returns the Thm. 5 sandwich for C = A ⊗ B when A has full
// self loops and B is merely undirected:
//
//	max{hops_A, hops_B} ≤ hops_C(p,q) ≤ max{hops_A, hops_B} + 1.
func HopsBoundsAt(a, b *Factor, p, q int64) (lo, hi int64) {
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	j, l := ix.Split(q)
	return bounds(ChainHopsAt([]*Factor{a, b}, []int64{i, k}, []int64{j, l}))
}

// DiameterBounds returns the Cor. 5 sandwich for A with full self loops
// and B merely undirected:
// max{diam_A, diam_B} ≤ diam(G_C) ≤ max{diam_A, diam_B} + 1.
func DiameterBounds(a, b *Factor) (lo, hi int64) {
	return bounds(ChainDiameter([]*Factor{a, b}))
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
// hops_A(i,·) and hops_B(k,·) — O(n_A+n_B) storage, O(n_A·n_B) time.
// Unreachable pairs contribute 0.
func ClosenessAt(a, b *Factor, p int64) float64 {
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	rowA, rowB := a.distances("closeness").Hops[i], b.distances("closeness").Hops[k]
	var s float64
	for _, ha := range rowA {
		if ha == analytics.Unreachable {
			continue
		}
		for _, hb := range rowB {
			if hb == analytics.Unreachable {
				continue
			}
			h := ha
			if hb > h {
				h = hb
			}
			s += 1 / float64(h)
		}
	}
	return s
}

// ClosenessCompressedAt returns ζ_C(p) via the paper's compressed
// histogram form (Sec. V-B): with per-row hop histograms the double sum
// factors as
//
//	ζ_C(p) = Σ_{h=1}^{h*} count(h)/h,
//	count(h) = cntA[h]·cumB[h] + cumA[h−1]·cntB[h],
//
// where cnt[h] is the number of row entries equal to h and cum[h] the
// number ≤ h. Cost O(h*) per vertex after O(n) histogramming, versus
// O(n_A·n_B) for the direct sum.
func ClosenessCompressedAt(a, b *Factor, p int64) float64 {
	ha, hb := a.distances("compressed closeness").Hops, b.distances("compressed closeness").Hops
	ix := core.NewIndex(b.N())
	i, k := ix.Split(p)
	hstar := ChainDiameter([]*Factor{a, b})
	if hstar == analytics.Unreachable {
		// Disconnected factors: fall back to the direct sum, which
		// handles unreachable entries pairwise.
		return ClosenessAt(a, b, p)
	}
	cntA := analytics.HopHistogram(ha[i], hstar)
	cntB := analytics.HopHistogram(hb[k], hstar)
	cumA := make([]int64, hstar+1)
	cumB := make([]int64, hstar+1)
	for h := int64(1); h <= hstar; h++ {
		cumA[h] = cumA[h-1] + cntA[h]
		cumB[h] = cumB[h-1] + cntB[h]
	}
	var s float64
	for h := int64(1); h <= hstar; h++ {
		count := cntA[h]*cumB[h] + cumA[h-1]*cntB[h]
		if count != 0 {
			s += float64(count) / float64(h)
		}
	}
	return s
}
