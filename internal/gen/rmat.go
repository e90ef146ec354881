package gen

import (
	"fmt"
	"math"
	"math/rand"

	"kronlab/internal/graph"
)

// RMATParams configures the recursive-matrix (stochastic Kronecker)
// generator of Chakrabarti et al., the generator family used by Graph500
// and contrasted against nonstochastic Kronecker products in the paper's
// introduction.
type RMATParams struct {
	Scale      int     // n = 2^Scale vertices
	EdgeFactor int64   // m = EdgeFactor · n sampled edges (before dedup)
	A, B, C    float64 // quadrant probabilities; D = 1−A−B−C
	Seed       int64
	Undirected bool // symmetrize and drop duplicates
	DropLoops  bool // discard sampled self loops
}

// Graph500Params returns the standard Graph500 R-MAT parameters
// (a, b, c, d) = (0.57, 0.19, 0.19, 0.05) at the given scale with the
// standard edge factor 16.
func Graph500Params(scale int, seed int64) RMATParams {
	return RMATParams{
		Scale: scale, EdgeFactor: 16,
		A: 0.57, B: 0.19, C: 0.19,
		Seed: seed, Undirected: true, DropLoops: true,
	}
}

// RMAT samples an R-MAT graph. Duplicate sampled edges are merged by the
// graph constructor, so the resulting edge count is at most
// EdgeFactor·2^Scale.
//
// The draw order is part of the contract: edge by edge, one
// rng.Float64() per bit from the top bit down, from a math/rand source
// seeded with Seed. Every factor a benchmark or an experiment builds is a
// function of that sequence, so figures compare across commits only while
// it stays as it is.
func RMAT(p RMATParams) (*graph.Graph, error) {
	if p.Scale < 0 || p.Scale > 40 {
		return nil, fmt.Errorf("gen: RMAT scale %d out of range [0,40]", p.Scale)
	}
	// !(x >= 0) rather than x < 0, so that NaN is refused.
	d := 1 - p.A - p.B - p.C
	if !(p.A >= 0) || !(p.B >= 0) || !(p.C >= 0) || !(d >= 0) {
		return nil, fmt.Errorf("gen: RMAT probabilities (%v,%v,%v) invalid", p.A, p.B, p.C)
	}
	n := int64(1) << uint(p.Scale)
	if p.EdgeFactor < 0 || (p.EdgeFactor > 0 && n > math.MaxInt64/p.EdgeFactor) {
		return nil, fmt.Errorf("gen: RMAT edge factor %d invalid at scale %d", p.EdgeFactor, p.Scale)
	}
	rng := rand.New(rand.NewSource(p.Seed))
	m := p.EdgeFactor * n
	ab, abc := p.A+p.B, p.A+p.B+p.C
	edges := make([]graph.Edge, 0, m)
	for e := int64(0); e < m; e++ {
		// Each bit's quadrant from three comparisons held as data, not
		// branched on: b2 is the row bit (quadrants C and D), and
		// b1^b2^b3 the column bit (B and D).
		var u, v int64
		for bit := p.Scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			b1, b2, b3 := bit01(r >= p.A), bit01(r >= ab), bit01(r >= abc)
			u |= b2 << uint(bit)
			v |= (b1 ^ b2 ^ b3) << uint(bit)
		}
		if p.DropLoops && u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	if p.Undirected {
		return graph.NewUndirected(n, edges)
	}
	return graph.New(n, edges)
}

// bit01 is 1 for true and 0 for false; the compiler makes it a SETcc.
func bit01(c bool) int64 {
	if c {
		return 1
	}
	return 0
}

// MustRMAT is RMAT but panics on invalid parameters; convenient in
// experiments with fixed known-good parameters.
func MustRMAT(p RMATParams) *graph.Graph {
	g, err := RMAT(p)
	if err != nil {
		panic(err)
	}
	return g
}
