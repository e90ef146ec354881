package groundtruth

import (
	"math/rand"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// materializeChain builds the heterogeneous product the Chain* laws are
// checked against, by left-folding core.Product.
func materializeChain(t *testing.T, gs ...*graph.Graph) *graph.Graph {
	t.Helper()
	ch, err := core.NewChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := ch.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func factorsOf(gs ...*graph.Graph) []*Factor {
	fs := make([]*Factor, len(gs))
	for i, g := range gs {
		fs[i] = NewFactor(g)
	}
	return fs
}

func chainIndexFor(t *testing.T, fs []*Factor) core.ChainIndex {
	t.Helper()
	dims := make([]int64, len(fs))
	for d, f := range fs {
		dims[d] = f.N()
	}
	ci, err := core.NewChainIndex(dims)
	if err != nil {
		t.Fatal(err)
	}
	return ci
}

func TestChainCountingLawsAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(401))
	ga := randomConnectedLoopFree(rng, 5)
	gb := randomConnectedLoopFree(rng, 4)
	gc := randomConnectedLoopFree(rng, 3)
	c := materializeChain(t, ga, gb, gc)
	fs := factorsOf(ga, gb, gc)

	if n, err := ChainNumVertices(fs); err != nil || n != c.NumVertices() {
		t.Errorf("n law: %d (err %v) != %d", n, err, c.NumVertices())
	}
	if arcs, err := ChainNumArcs(fs); err != nil || arcs != c.NumArcs() {
		t.Errorf("arc law: %d (err %v) != %d", arcs, err, c.NumArcs())
	}
	if m, err := ChainNumEdges(fs); err != nil || m != c.NumEdges() {
		t.Errorf("m law: %d (err %v) != %d", m, err, c.NumEdges())
	}

	exact := analytics.Triangles(c)
	if tau, err := ChainGlobalTriangles(fs); err != nil || tau != exact.Global {
		t.Errorf("τ law: %d (err %v) != %d", tau, err, exact.Global)
	}
	ci := chainIndexFor(t, fs)
	buf := make([]int64, len(fs))
	for p := int64(0); p < c.NumVertices(); p++ {
		coords := ci.SplitInto(p, buf)
		if got := ChainDegreeAt(fs, coords); got != c.Degree(p) {
			t.Fatalf("degree law fails at %d: %d != %d", p, got, c.Degree(p))
		}
		if got := ChainVertexTrianglesAt(fs, coords); got != exact.Vertex[p] {
			t.Fatalf("triangle law fails at %d: %d != %d", p, got, exact.Vertex[p])
		}
	}
}

func TestChainNumEdgesWithLoops(t *testing.T) {
	// The general (arcs+loops)/2 form must hold for factors with loops,
	// where the 2^{k−1} special case does not apply.
	rng := rand.New(rand.NewSource(409))
	ga := randomConnectedLoopFree(rng, 4).WithFullSelfLoops()
	gb := randomConnectedLoopFree(rng, 3)
	gc := randomConnectedLoopFree(rng, 3).WithFullSelfLoops()
	c := materializeChain(t, ga, gb, gc)
	fs := factorsOf(ga, gb, gc)
	if m, err := ChainNumEdges(fs); err != nil || m != c.NumEdges() {
		t.Errorf("m law with loops: %d (err %v) != %d", m, err, c.NumEdges())
	}
}

func TestChainDistanceLawsAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	ga := randomConnectedLoopFree(rng, 4).WithFullSelfLoops()
	gb := randomConnectedLoopFree(rng, 3).WithFullSelfLoops()
	gc := randomConnectedLoopFree(rng, 3).WithFullSelfLoops()
	c := materializeChain(t, ga, gb, gc)
	fs := factorsOf(ga, gb, gc)
	ci := chainIndexFor(t, fs)

	exactEcc := analytics.Eccentricities(c)
	for p := int64(0); p < c.NumVertices(); p++ {
		if got := ChainEccentricityAt(fs, ci.Split(p)); got != exactEcc[p] {
			t.Fatalf("ε law fails at %d: %d != %d", p, got, exactEcc[p])
		}
	}
	if got := ChainDiameter(fs); got != analytics.Diameter(c) {
		t.Errorf("diameter law: %d != %d", got, analytics.Diameter(c))
	}
	rows := analytics.AllPairsHops(c)
	for p := int64(0); p < c.NumVertices(); p += 3 {
		for q := int64(0); q < c.NumVertices(); q += 5 {
			if got := ChainHopsAt(fs, ci.Split(p), ci.Split(q)); got != rows[p][q] {
				t.Fatalf("hops law fails at (%d,%d): %d != %d", p, q, got, rows[p][q])
			}
		}
	}

	want := map[int64]int64{}
	for _, e := range exactEcc {
		want[e]++
	}
	got := ChainEccentricityHistogram(fs)
	if len(got) != len(want) {
		t.Fatalf("histogram sizes %d != %d", len(got), len(want))
	}
	for v, cnt := range want {
		if got[v] != cnt {
			t.Fatalf("hist[%d] = %d, want %d", v, got[v], cnt)
		}
	}
}

func TestChainCoordsOf(t *testing.T) {
	fs := factorsOf(clique3WithLoops(t), triangleGraph(t))
	coords, err := ChainCoordsOf(fs, 7)
	if err != nil || len(coords) != 2 {
		t.Fatalf("coords = %v, err %v", coords, err)
	}
	if got := coords[0]*3 + coords[1]; got != 7 {
		t.Fatalf("coords %v do not recompose to 7", coords)
	}
}

func TestChainAndPowerCountOverflow(t *testing.T) {
	// A 3-vertex, 9-arc clique-with-loops factor: n^k fits far past the
	// point where arcs^k overflows.
	f := NewFactor(clique3WithLoops(t))
	fs := copies(f, 21)
	if _, err := ChainNumArcs(fs); err == nil {
		t.Error("want arc-count overflow at 9^21")
	}
	if _, err := ChainNumEdges(fs); err == nil {
		t.Error("want edge-count overflow at 9^21")
	}
	// Vertex overflow: 40 factors of 3 vertices is 3^40 > 2^63.
	if _, err := ChainNumVertices(copies(f, 40)); err == nil {
		t.Error("want vertex-count overflow at 3^40")
	}
	// The power laws are the chain laws over k copies: a loop-free
	// 3-clique has m = 3 and τ = 1, so m_C = 2^{k−1}·3^k and τ_C = 6^{k−1}
	// both overflow at k = 40 (6^39 ≫ 2^63).
	lf := NewFactor(triangleGraph(t))
	if _, err := ChainNumEdges(copies(lf, 40)); err == nil {
		t.Error("want ChainNumEdges overflow at k=40")
	}
	if _, err := ChainGlobalTriangles(copies(lf, 40)); err == nil {
		t.Error("want ChainGlobalTriangles overflow at k=40")
	}
	if m, err := ChainNumEdges(copies(lf, 3)); err != nil || m != 108 {
		t.Errorf("ChainNumEdges(triangle ×3) = %d (err %v), want 108", m, err)
	}
}

func clique3WithLoops(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewUndirected(3, []graph.Edge{
		{U: 0, V: 0}, {U: 1, V: 1}, {U: 2, V: 2},
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func triangleGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g, err := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
