package havoq

import (
	"fmt"

	"kronlab/internal/analytics"
)

// EccResult is the output of ExactEccentricities: per-vertex eccentricity
// plus the number of BFS sweeps used, reported so pruning effectiveness
// can be compared to the n-sweep brute force.
type EccResult struct {
	Ecc    []int64
	Sweeps int
}

// ExactEccentricities computes the exact eccentricity of every vertex
// with the distributed bound-pruning algorithm of the paper's ref [3]
// (Iwabuchi, Sanders, Henderson, Pearce, CLUSTER'18): repeated BFS sweeps
// from strategically chosen sources maintain per-vertex bounds
//
//	lower(v) = max(lower(v), dist(s,v), ecc(s) − dist(s,v))
//	upper(v) = min(upper(v), ecc(s) + dist(s,v))
//
// and a vertex is resolved when the bounds meet. Sources alternate
// between the unresolved vertex of maximum upper bound (resolves the
// periphery) and minimum lower bound (resolves the center), seeded by the
// maximum-degree vertex.
//
// Eccentricity here is over BFS distances; for connected graphs with full
// self loops and n ≥ 2 this equals the paper's hop-count eccentricity
// (Def. 11), which is the regime of Cor. 4. Disconnected graphs return an
// error.
func (dg *DistGraph) ExactEccentricities() (*EccResult, error) {
	n := dg.N
	if n == 0 {
		return &EccResult{}, nil
	}
	lower := make([]int64, n)
	upper := make([]int64, n)
	const inf = int64(1) << 62
	for v := range upper {
		upper[v] = inf
	}
	resolved := make([]bool, n)
	var nResolved int64
	ecc := make([]int64, n)

	// Seed: max-degree vertex.
	pick := int64(0)
	for v := int64(1); v < n; v++ {
		if dg.Degree(v) > dg.Degree(pick) {
			pick = v
		}
	}
	sw, h := newSweeper(dg), make([]int64, n)
	sweeps := 0
	wantMaxUpper := true
	for nResolved < n {
		s := pick
		sw.from(s, h)
		sweeps++
		var eccS int64
		for _, d := range h {
			if d == analytics.Unreachable {
				return nil, fmt.Errorf("havoq: ExactEccentricities requires a connected graph")
			}
			if d > eccS {
				eccS = d
			}
		}
		for v := int64(0); v < n; v++ {
			if resolved[v] {
				continue
			}
			d := h[v]
			if d > lower[v] {
				lower[v] = d
			}
			if e := eccS - d; e > lower[v] {
				lower[v] = e
			}
			if e := eccS + d; e < upper[v] {
				upper[v] = e
			}
			if lower[v] >= upper[v] || v == s {
				ecc[v] = lower[v]
				if v == s {
					ecc[v] = eccS
				}
				resolved[v] = true
				nResolved++
			}
		}
		if nResolved >= n {
			break
		}
		// Choose the next source among unresolved vertices.
		pick = -1
		for v := int64(0); v < n; v++ {
			if resolved[v] {
				continue
			}
			if pick == -1 {
				pick = v
				continue
			}
			if wantMaxUpper {
				if upper[v] > upper[pick] || (upper[v] == upper[pick] && dg.Degree(v) > dg.Degree(pick)) {
					pick = v
				}
			} else {
				if lower[v] < lower[pick] || (lower[v] == lower[pick] && dg.Degree(v) > dg.Degree(pick)) {
					pick = v
				}
			}
		}
		wantMaxUpper = !wantMaxUpper
	}
	return &EccResult{Ecc: ecc, Sweeps: sweeps}, nil
}
