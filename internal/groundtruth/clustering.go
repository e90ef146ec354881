package groundtruth

import "math"

// Theta returns the vertex clustering scaling factor of Thm. 1:
// θ_p = (d_i − 1)·(d_k − 1) / (d_i·d_k − 1), which lies in [1/3, 1) for
// d_i, d_k ≥ 2 and is minimized (1/3) at d_i = d_k = 2.
func Theta(di, dk int64) float64 {
	return float64((di-1)*(dk-1)) / float64(di*dk-1)
}

// vertexClustering is η_p = 2t_p/(d_p(d_p − 1)) of the loop-free product
// ⊗A_d, read from the degree and triangle laws at p's coordinates. At
// k = 2 it is Thm. 1's η_C(p) = θ_p·η_A(i)·η_B(k) where both digits'
// degrees are at least 2. NaN when d_p is below 2 (η undefined there).
func vertexClustering(fs []*Factor, coords []int64) (float64, error) {
	deg := float64(value(degrees.at(fs, coords)))
	if deg < 2 {
		return math.NaN(), nil
	}
	t, err := triangles.at(fs, coords)
	if err != nil {
		return 0, err
	}
	return 2 * float64(t) / (deg * (deg - 1)), nil
}

// Phi returns the edge clustering scaling factor of Thm. 2:
//
//	φ_pq = (min(d_i,d_j) − 1)·(min(d_k,d_l) − 1) / (min(d_i·d_k, d_j·d_l) − 1)
//
// which lies in (0, 1) but — unlike θ — has no positive lower bound, so
// edge clustering coefficients are not controllable.
func Phi(di, dj, dk, dl int64) float64 {
	return float64((min(di, dj)-1)*(min(dk, dl)-1)) / float64(min(di*dk, dj*dl)-1)
}

// edgeClustering is ξ_pq = Δ_pq/(min(d_p, d_q) − 1) of a non-loop edge
// of ⊗A_d, read from the degree and edge triangle laws. At k = 2 it is
// Thm. 2's ξ_C(p,q) = φ_pq·ξ_A(i,j)·ξ_B(k,l) where every endpoint degree
// is at least 2. NaN when min(d_p, d_q) is below 2.
func edgeClustering(fs []*Factor, cp, cq []int64) (float64, error) {
	m := min(value(degrees.at(fs, cp)), value(degrees.at(fs, cq)))
	if m < 2 {
		return math.NaN(), nil
	}
	tri, err := edgeTriangles(fs, cp, cq)
	if err != nil {
		return 0, err
	}
	return float64(tri) / float64(m-1), nil
}
