package gen

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// pick.
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
	}
	for _, c := range golden {
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
	for _, scale := range []int{10, 16} {
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
