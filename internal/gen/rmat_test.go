package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"kronlab/internal/graph"
)

// digest is FNV-1a 64 over a graph's bytes as they are stored: the vertex
// count, the CSR row offsets, every row's targets in order and the loop
// count, each as a little-endian int64.
func digest(g *graph.Graph) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	put(g.NumVertices())
	for _, o := range g.RowOffsets() {
		put(o)
	}
	for v := int64(0); v < g.NumVertices(); v++ {
		for _, w := range g.Neighbors(v) {
			put(w)
		}
	}
	put(g.NumSelfLoops())
	return h.Sum64()
}

// TestRMATGolden pins the bytes RMAT builds for every factor the benchmark
// harness generates: its full, verify and tiny scale lists, the ladder's
// RMAT(9)⊗RMAT(8), at seeds 10, 11 and 12 (factor i of a chain is drawn
// from seed+i). Benchmark figures compare across commits only while these
// factors stay the same, so a change to the draw order or to CSR
// construction that moves a single arc fails here. The digests were
// recorded with the sort-based constructor and the branching quadrant
// pick; the rows from scale 14 on (RMAT(18) at seed 1 is
// BenchmarkPaperScale's factor, skipped under -short) with one
// rng.Float64() call per bit.
func TestRMATGolden(t *testing.T) {
	golden := []struct {
		scale int
		seed  int64
		want  uint64
	}{
		{2, 10, 0x6bd5f2345eca0e01}, {2, 11, 0x6bd5f2345eca0e01}, {2, 12, 0xd3ea5dfc4a61f4ab},
		{3, 10, 0x9ae95db48d867e2f}, {3, 11, 0xb2838f25de3d7bef}, {3, 12, 0x78efe476b05223fd},
		{4, 10, 0xdffcd5ec97f5585b}, {4, 11, 0x996df1a7e16441fb}, {4, 12, 0xe48580addb3d3555},
		{5, 10, 0xed47e91899f189af}, {5, 11, 0x9cf2f03f15fa4d65}, {5, 12, 0xe50f68d58b522aa3},
		{7, 10, 0x7953ce1535441e74}, {7, 11, 0xeec3b0de31a2253c}, {7, 12, 0x41d976490c80415d},
		{8, 10, 0x8ad972b1a83784be}, {8, 11, 0x37ec04e7166042d2}, {8, 12, 0xe7df4368820e5d53},
		{9, 10, 0xf2acdca6b5e32014}, {9, 11, 0xa6f1424fdd10ebbe}, {9, 12, 0xb9a76db0e407b1d7},
		{10, 10, 0x3f9589c1e2fdcaf1}, {10, 11, 0x861ab600c95be46b}, {10, 12, 0x65f1506165b1eff6},
		{11, 10, 0xc8d6af45cef206df}, {11, 11, 0xe51855a9fc0ea106}, {11, 12, 0x5b5ba032a45fe769},
		{14, 10, 0x238105ae1eebafea}, {14, 11, 0xbad0a6e1d6e6613d}, {14, 12, 0x2317138d1a617e7a},
		{16, 10, 0x59e7d7111661c12c},
		{18, 1, 0x5b130eaf01faa4d0}, // the paper's factor; about a second
	}
	for _, c := range golden {
		if c.scale == 18 && testing.Short() {
			continue
		}
		g := MustRMAT(Graph500Params(c.scale, c.seed))
		if got := digest(g); got != c.want {
			t.Errorf("Graph500Params(%d, %d): digest %#016x, want %#016x (%v)",
				c.scale, c.seed, got, c.want, g)
		}
	}

	// Directed with loops kept: every sampled arc lands as given, so this
	// pins New's path as the rows above pin NewUndirected's.
	p := Graph500Params(8, 10)
	p.Undirected, p.DropLoops = false, false
	g := MustRMAT(p)
	if got, want := digest(g), uint64(0xc847556a0f8b3cb7); got != want {
		t.Errorf("directed RMAT(8): digest %#016x, want %#016x (%v)", got, want, g)
	}
	if g.NumArcs() != 2654 || g.NumSelfLoops() != 22 {
		t.Errorf("directed RMAT(8): %d arcs, %d loops; want 2654, 22", g.NumArcs(), g.NumSelfLoops())
	}
}

// BenchmarkRMAT builds one Graph500 factor per iteration, sampling and CSR
// construction both. ns/sample divides by the EdgeFactor·2^Scale edges
// drawn, before loops and duplicates are dropped.
func BenchmarkRMAT(b *testing.B) {
	for _, scale := range []int{10, 16, 18} {
		p := Graph500Params(scale, 10)
		b.Run(fmt.Sprintf("scale%d", scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := RMAT(p); err != nil {
					b.Fatal(err)
				}
			}
			samples := float64(b.N) * float64(p.EdgeFactor<<uint(scale))
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/samples, "ns/sample")
		})
	}
}

// rmatByRand is RMAT as it stood while it called rng.Float64() once per
// bit, the reference RMAT is held to. edgesByRand is its sampling loop.
func rmatByRand(p RMATParams) (*graph.Graph, error) {
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
	edges := edgesByRand(p, rng)
	if p.Undirected {
		return graph.NewUndirected(n, edges)
	}
	return graph.New(n, edges)
}

func edgesByRand(p RMATParams, rng *rand.Rand) []graph.Edge {
	m := p.EdgeFactor << uint(p.Scale)
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
	return edges
}

// sameRMAT fails t unless RMAT and rmatByRand agree on p: the same graph,
// or the same error.
func sameRMAT(t *testing.T, p RMATParams) {
	t.Helper()
	got, gerr := RMAT(p)
	want, werr := rmatByRand(p)
	if (gerr == nil) != (werr == nil) || (gerr != nil && gerr.Error() != werr.Error()) {
		t.Fatalf("%+v: error %v, reference %v", p, gerr, werr)
	}
	if gerr == nil && !got.Equal(want) {
		t.Fatalf("%+v: %v, reference %v", p, got, want)
	}
}

// rmatVariants are the parameter sets the reference test runs at each
// scale and seed: Graph500, each probability at an end of its range,
// directed with loops kept, and the smallest edge factors.
func rmatVariants(scale int, seed int64) []RMATParams {
	g := Graph500Params(scale, seed)
	with := func(f func(*RMATParams)) RMATParams { p := g; f(&p); return p }
	return []RMATParams{
		g,
		with(func(p *RMATParams) { p.A = 0 }),
		with(func(p *RMATParams) { p.A, p.B, p.C = 1, 0, 0 }),
		with(func(p *RMATParams) { p.A, p.B, p.C = 0.5, 0.25, 0.25 }), // D = 0
		with(func(p *RMATParams) { p.B, p.C = 0, 0 }),
		with(func(p *RMATParams) { p.Undirected, p.DropLoops = false, false }),
		with(func(p *RMATParams) { p.EdgeFactor = 0 }),
		with(func(p *RMATParams) { p.EdgeFactor = 1 }),
	}
}

var referenceSeeds = []int64{0, 1, -1, 10, 11, 12, 1 << 40, math.MaxInt64, math.MinInt64}

// TestRMATMatchesRandReference holds RMAT to rmatByRand, which draws every
// bit through rand.Rand.Float64, on graphs and on the errors of invalid
// parameters.
func TestRMATMatchesRandReference(t *testing.T) {
	for _, seed := range referenceSeeds {
		for scale := 0; scale <= 12; scale++ {
			for _, p := range rmatVariants(scale, seed) {
				sameRMAT(t, p)
			}
		}
		if !testing.Short() {
			sameRMAT(t, Graph500Params(16, seed))
		}
	}
	if p := rmatVariants(0, 0)[3]; 1-p.A-p.B-p.C != 0 {
		t.Fatalf("the D = 0 variant has D = %v", 1-p.A-p.B-p.C)
	}
	for _, p := range []RMATParams{
		{Scale: -1},
		{Scale: 41, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 4, A: 0.9, B: 0.9, C: 0.9},
		{Scale: 4, EdgeFactor: -1, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 40, EdgeFactor: 1 << 24, A: 0.57, B: 0.19, C: 0.19},
		{Scale: 4, EdgeFactor: 16, A: math.NaN(), B: 0.19, C: 0.19},
		{Scale: 4, EdgeFactor: 16, A: 0.57, B: -0.19, C: 0.19},
		{Scale: 4, EdgeFactor: 16, A: 0.57, B: 0.19, C: math.Inf(1)},
	} {
		if _, err := RMAT(p); err == nil {
			t.Fatalf("%+v: no error", p)
		}
		sameRMAT(t, p)
	}
}

// FuzzRMAT holds RMAT to rmatByRand on arbitrary probabilities, seeds and
// flags at scales up to 8.
func FuzzRMAT(f *testing.F) {
	f.Add(uint8(8), int64(10), 0.57, 0.19, 0.19, true, true)
	f.Add(uint8(5), int64(-1), 0.5, 0.25, 0.25, false, false)
	f.Add(uint8(3), int64(math.MinInt64), 1.0, 0.0, 0.0, true, false)
	f.Add(uint8(4), int64(0), 0.9, 0.9, 0.9, false, true)
	f.Fuzz(func(t *testing.T, scale uint8, seed int64, a, b, c float64, undirected, dropLoops bool) {
		sameRMAT(t, RMATParams{
			Scale: int(scale % 9), EdgeFactor: 16, A: a, B: b, C: c,
			Seed: seed, Undirected: undirected, DropLoops: dropLoops,
		})
	})
}

// lfSource is math/rand's seeded generator run from any history: its first
// outputs are the history, and output n after them is x[n−607] + x[n−273].
// It is the recurrence written out the plain way, so a Rand over it draws
// what rand.Rand.Float64 would draw from that history.
type lfSource struct {
	x []uint64 // every output so far, then the ones not yet read
	n int      // outputs read
}

func newLFSource(h [streamLen]uint64) *lfSource {
	return &lfSource{x: append([]uint64(nil), h[:]...)}
}

func (s *lfSource) Uint64() uint64 {
	if s.n == len(s.x) {
		s.x = append(s.x, s.x[s.n-607]+s.x[s.n-273])
	}
	s.n++
	return s.x[s.n-1]
}

func (s *lfSource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *lfSource) Seed(int64) { panic("lfSource: Seed") }

// TestStreamContinuesRandSource checks the recurrence the stream runs:
// from a seeded source's first 607 outputs, lfSource and stream.advance
// both go on exactly as the source does.
func TestStreamContinuesRandSource(t *testing.T) {
	for _, seed := range referenceSeeds {
		src := rand.NewSource(seed).(rand.Source64)
		s := seededStream(seed)
		lf := newLFSource(s)
		for block := 0; block < 4; block++ {
			for i, x := range s {
				want := src.Uint64()
				if x != want || lf.Uint64() != want {
					t.Fatalf("seed %d: output %d: stream %#x, lfSource %#x, source %#x",
						seed, block*streamLen+i, x, lf.x[lf.n-1], want)
				}
			}
			s.advance()
		}
	}
}

// TestThreshold checks each threshold against the float comparison it
// stands for, on either side of it, and that retry is where Float64 starts
// to redraw.
func TestThreshold(t *testing.T) {
	below := func(r uint64, q float64) bool { return float64(int64(r))/(1<<63) < q }
	if threshold(1) != retry {
		t.Fatalf("threshold(1) = %#x, want retry %#x", threshold(1), uint64(retry))
	}
	for _, q := range []float64{0, 1e-300, 0.05, 0.19, 0.38, 0.57, 0.57 + 0.19, 0.57 + 0.19 + 0.19, 0.5, 0.95, 1 - 0x1p-53, 1, 1 + 0x1p-52} {
		tq := threshold(q)
		if tq < 1<<63 && below(tq, q) {
			t.Errorf("threshold(%v) = %#x is below %v", q, tq, q)
		}
		if tq > 0 && !below(tq-1, q) {
			t.Errorf("threshold(%v) = %#x: %#x already reaches %v", q, tq, tq-1, q)
		}
	}
	if threshold(1+0x1p-52) != 1<<63 {
		t.Errorf("a probability over 1 must have no threshold below 2⁶³")
	}
}

// TestRMATPlantedStream plants outputs no seed reaches in practice: ones
// in Float64's retry band [2⁶³−512, 2⁶³) — alone, two in a row, as the last
// draw of an edge, as the last output a stream holds, and made by advance
// — and ones at t−1, t and t+1 of each threshold t, with the top bit clear
// and set. rmatEdges must draw from such a stream what edgesByRand draws
// through rand.Rand.Float64 from the same history.
func TestRMATPlantedStream(t *testing.T) {
	const scale = 6 // edge e's draws are 6e to 6e+5 until a redraw
	variants := []RMATParams{
		{Scale: scale, EdgeFactor: 16, A: 0.57, B: 0.19, C: 0.19},
		{Scale: scale, EdgeFactor: 16, A: 0.5, B: 0.25, C: 0.25},
		{Scale: scale, EdgeFactor: 16, A: 0.1, B: 0.3, C: 0.2},
	}
	for _, p := range variants {
		rng := rand.New(rand.NewSource(7))
		var h [streamLen]uint64
		for i := range h {
			h[i] = rng.Uint64()
		}
		const top = 1 << 63
		h[5] = retry // the last draw of edge 0
		h[30] = top - 1
		h[50], h[51] = retry+1, top|retry
		h[606] = top | (top - 1)
		// Output 607+10 is h[10] + h[10+334]: a retry made by advance.
		h[10] = retry + 7 - h[10+streamLen-streamTap]
		at := 100
		for _, q := range []float64{p.A, p.A + p.B, p.A + p.B + p.C} {
			tq := threshold(q)
			for _, r := range []uint64{tq - 1, tq, tq + 1} {
				h[at], h[at+1] = r, top|r
				at += 3
			}
		}
		lf := newLFSource(h)
		for lf.n <= streamLen+10 {
			lf.Uint64()
		}
		if lf.x[streamLen+10]&^top < retry {
			t.Fatal("output 617 is not in the retry band")
		}
		s := stream(h)
		got := rmatEdges(p, &s)
		want := edgesByRand(p, rand.New(newLFSource(h)))
		if len(got) != len(want) {
			t.Fatalf("%+v: %d edges, reference %d", p, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%+v: edge %d is %v, reference %v", p, i, got[i], want[i])
			}
		}
	}
}
