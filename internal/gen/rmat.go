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
// The draw order is part of the contract: edge by edge, one Float64 per
// bit from the top bit down, read off the output stream of
// rand.NewSource(Seed) as rand.Rand.Float64 reads it, redrawing an output
// that rounds to 1. Every factor a benchmark or an experiment builds is a
// function of that sequence, so figures compare across commits only while
// it stays as it is. RMAT continues the source's stream itself (see
// stream) and compares integer thresholds, so it makes no call per bit.
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
	s := seededStream(p.Seed)
	edges := rmatEdges(p, &s)
	if p.Undirected {
		return graph.NewUndirected(n, edges)
	}
	return graph.New(n, edges)
}

// rmatEdges samples p's edges from s, which it advances. An output r
// stands for the Float64 r/2⁶³, and r/2⁶³ ≥ q exactly when r ≥
// threshold(q). Each bit's quadrant is the count c of the thresholds of A,
// A+B and A+B+C that r reaches, held as data, not branched on: the row bit
// is c>>1 (quadrants C and D) and the column bit c&1 (B and D). Bits are
// drawn from the top down, so each shifts in at the bottom.
func rmatEdges(p RMATParams, s *stream) []graph.Edge {
	tA, tAB, tABC := threshold(p.A), threshold(p.A+p.B), threshold(p.A+p.B+p.C)
	m := p.EdgeFactor << uint(p.Scale)
	edges := make([]graph.Edge, 0, m)
	i := 0 // s[i] is the next output
	for e := int64(0); e < m; e++ {
		var u, v int64
		for k := p.Scale; k > 0; {
			if i >= len(s) {
				s.advance()
				i = 0
			}
			r := s[i] &^ (1 << 63)
			i++
			if r >= retry {
				continue
			}
			c := bit01(r >= tA) + bit01(r >= tAB) + bit01(r >= tABC)
			u = u<<1 | c>>1
			v = v<<1 | c&1
			k--
		}
		if p.DropLoops && u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	return edges
}

// retry is the least 63-bit output r with float64(r)/2⁶³ = 1: Float64
// redraws from there up, and so does rmatEdges.
const retry = 1<<63 - 512

// threshold is the least r in [0, 2⁶³) with float64(r)/2⁶³ ≥ q, or 2⁶³ if
// there is none. float64(r) does not decrease as r grows, so r ≥
// threshold(q) exactly when float64(r)/2⁶³ ≥ q, and bisection finds it.
func threshold(q float64) uint64 {
	lo, hi := uint64(0), uint64(1)<<63
	for lo < hi {
		mid := lo + (hi-lo)/2
		if float64(int64(mid))/(1<<63) >= q {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// streamLen and streamTap are math/rand's rngLen and rngTap.
const (
	streamLen = 607
	streamTap = 273
)

// stream holds the next streamLen outputs of math/rand's seeded source, in
// the order Uint64 returns them. That source is an additive lagged
// Fibonacci generator: once its first streamLen outputs are out, output n
// is x[n−607] + x[n−273] mod 2⁶⁴, so the stream goes on without it. A
// stream is only its outputs, so stream(h) is the stream whose first
// outputs are any 607 values h.
type stream [streamLen]uint64

// seededStream returns the stream of rand.NewSource(seed) from its first
// output on.
func seededStream(seed int64) stream {
	src := rand.NewSource(seed).(rand.Source64)
	var s stream
	for i := range s {
		s[i] = src.Uint64()
	}
	return s
}

// advance replaces the outputs held by the next streamLen, in place. Output
// n's lag-607 term is the one it replaces. Its lag-273 term lies lag slots
// further on for the first streamTap, still held, and streamTap slots back
// for the rest, just made.
func (s *stream) advance() {
	const lag = streamLen - streamTap
	first, held := s[:streamTap], s[lag:]
	for i := range first {
		first[i] += held[i]
	}
	rest, made := s[streamTap:], s[:lag]
	for i := range rest {
		rest[i] += made[i]
	}
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
