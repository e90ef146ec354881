package gen

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
// It has two bodies for that, which draw the same edges. The scalar one
// decodes one output at a time and runs on every host. Where the CPU probe
// found AVX-512, each buffer the stream advances into is made and decoded
// eight outputs per instruction (rmatBlock) and its edges are cut out of
// the bit masks that leaves; a buffer holding an output that Float64
// would redraw goes to the scalar body instead, from its first output on.
// core.Kernel() names the body: "avx512" is the vector one.
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

// rmatEdges samples p's edges from s, which it advances: the seeded buffer
// through the scalar body, each later one through rmatBlock where
// hasAVX512 is set and no output it made is in the retry band, else
// through the scalar body.
func rmatEdges(p RMATParams, s *stream) []graph.Edge {
	m := p.EdgeFactor << uint(p.Scale)
	q := sampler{
		tA: threshold(p.A), tAB: threshold(p.A + p.B), tABC: threshold(p.A + p.B + p.C),
		scale: p.Scale, dropLoops: p.DropLoops,
		edges: make([]graph.Edge, 0, m), left: m, k: p.Scale,
	}
	q.scalar(s)
	var b masks
	for q.left > 0 {
		if hasAVX512 {
			rmatBlock(s, q.tA, q.tAB, q.tABC, &b)
			if b.clean() {
				q.decoded(&b)
				continue
			}
		} else {
			s.advance()
		}
		q.scalar(s)
	}
	return q.edges
}

// sampler is a draw of edges in progress, carried from one buffer of the
// stream to the next: the edges made, how many are still to draw, and the
// bits of the next one drawn so far.
type sampler struct {
	tA, tAB, tABC uint64 // threshold(A), threshold(A+B), threshold(A+B+C)
	scale         int
	dropLoops     bool

	edges []graph.Edge
	left  int64 // edges still to draw, the one in progress included
	u, v  int64 // the next edge's top bits, drawn so far
	k     int   // its bits still to draw
}

// scalar draws from s one output at a time until every edge is drawn or s
// runs out. An output r stands for the Float64 r/2⁶³, and r/2⁶³ ≥ q
// exactly when r ≥ threshold(q). Each bit's quadrant is the count c of the
// thresholds of A, A+B and A+B+C that r reaches, held as data, not
// branched on: the row bit is c>>1 (quadrants C and D) and the column bit
// c&1 (B and D). Bits are drawn from the top down, so each shifts in at
// the bottom.
func (q *sampler) scalar(s *stream) {
	tA, tAB, tABC, scale, dropLoops := q.tA, q.tAB, q.tABC, q.scale, q.dropLoops
	edges, left, u, v, k := q.edges, q.left, q.u, q.v, q.k
	i := 0 // s[i] is the next output
draw:
	for ; left > 0; left-- {
		for k > 0 {
			if i == len(s) {
				break draw
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
		if !dropLoops || u != v {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
		u, v, k = 0, 0, scale
	}
	q.edges, q.left, q.u, q.v, q.k = edges, left, u, v, k
}

// decoded draws from a buffer that rmatBlock decoded into b with no output
// in the retry band. Every output is then one bit, so an edge's row and
// column bits are the next k bits of b.row and b.col, the last edge's
// cut short by the buffer's end. Bit-reversed into bytes, the masks put
// output i at the top of a big-endian load at byte i/8 shifted left by
// i%8, and the outputs after it below, 57 bits at least: more than the 40
// of the largest Scale.
func (q *sampler) decoded(b *masks) {
	var row, col [8 * (maskWords + 1)]byte // a word to spare for the loads near the end
	for w := range b.row {
		binary.BigEndian.PutUint64(row[8*w:], bits.Reverse64(b.row[w]))
		binary.BigEndian.PutUint64(col[8*w:], bits.Reverse64(b.col[w]))
	}
	scale, dropLoops := q.scale, q.dropLoops
	edges, left, u, v, k := q.edges, q.left, q.u, q.v, q.k
	for i := 0; i < streamLen && left > 0; {
		n := uint(min(k, streamLen-i))
		at, sh := i>>3, uint(i&7)
		u = u<<n | int64(binary.BigEndian.Uint64(row[at:])<<sh>>(64-n))
		v = v<<n | int64(binary.BigEndian.Uint64(col[at:])<<sh>>(64-n))
		i += int(n)
		if k -= int(n); k == 0 {
			if !dropLoops || u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
			left--
			u, v, k = 0, 0, scale
		}
	}
	q.edges, q.left, q.u, q.v, q.k = edges, left, u, v, k
}

// masks is a buffer of the stream decoded: bit j of row, col and redraw
// is output j's row bit, its column bit, and whether it is in the retry
// band. The bits past streamLen are 0.
type masks struct {
	row, col, redraw [maskWords]uint64
}

const maskWords = (streamLen + 63) / 64

// clean reports whether no output of b is in the retry band.
func (b *masks) clean() bool {
	var or uint64
	for _, w := range b.redraw {
		or |= w
	}
	return or == 0
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
