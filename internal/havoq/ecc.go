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
// with ref [3]'s bound rule (analytics.BoundedEccentricities), each of
// its sweeps a distributed BFS.
//
// Eccentricity here is over BFS distances; for connected graphs with full
// self loops and n ≥ 2 this equals the paper's hop-count eccentricity
// (Def. 11), which is the regime of Cor. 4. Disconnected graphs return an
// error.
func (dg *DistGraph) ExactEccentricities() (*EccResult, error) {
	sw, h := newSweeper(dg), make([]int64, dg.N)
	ecc, sweeps, err := analytics.BoundedEccentricities(dg.N, dg.Degree, func(s int64) []int64 {
		sw.from(s, h)
		return h
	})
	if err != nil {
		return nil, fmt.Errorf("havoq: ExactEccentricities %w", err)
	}
	return &EccResult{Ecc: ecc, Sweeps: sweeps}, nil
}
