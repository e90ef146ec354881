package groundtruth

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func factorsOf(tiers Tiers, gs ...*graph.Graph) []*Factor {
	fs := make([]*Factor, len(gs))
	for i, g := range gs {
		fs[i] = NewFactor(g, tiers)
	}
	return fs
}

// eccentricityAt is Cor. 4's row at p.
func eccentricityAt(fs []*Factor, p []int64) int64 {
	return value(at[int64](lawEccentricity, fs, p, nil))
}

// diameterOf is Cor. 3's row.
func diameterOf(fs []*Factor) int64 {
	return value(at[int64](lawDiameter, fs, nil, nil))
}

// hopsRow is Thm. 3's row from p, panicking with the row's refusal
// outside its hypothesis.
func hopsRow(fs []*Factor, p []int64) func(q []int64) int64 {
	lawHops.require(fs, p, nil)
	return lawHops.from(fs, p)
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
	c := mustProduct(t, ga, gb, gc)
	fs := factorsOf(Triangles, ga, gb, gc)

	if n, err := ChainNumVertices(fs); err != nil || n != c.NumVertices() {
		t.Errorf("n law: %d (err %v) != %d", n, err, c.NumVertices())
	}
	if arcs, err := at[int64](lawArcs, fs, nil, nil); err != nil || arcs != c.NumArcs() {
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
		if got, err := ChainVertexTrianglesAt(fs, coords); err != nil || got != exact.Vertex[p] {
			t.Fatalf("triangle law fails at %d: %d (err %v) != %d", p, got, err, exact.Vertex[p])
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
	c := mustProduct(t, ga, gb, gc)
	fs := factorsOf(Triangles, ga, gb, gc)
	if m, err := ChainNumEdges(fs); err != nil || m != c.NumEdges() {
		t.Errorf("m law with loops: %d (err %v) != %d", m, err, c.NumEdges())
	}
}

func TestChainDistanceLawsAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(419))
	twoK2, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range [][]*graph.Graph{
		{
			randomConnectedLoopFree(rng, 4).WithFullSelfLoops(),
			randomConnectedLoopFree(rng, 3).WithFullSelfLoops(),
			randomConnectedLoopFree(rng, 3).WithFullSelfLoops(),
		},
		// A disconnected factor: every product vertex is Unreachable.
		{twoK2.WithFullSelfLoops(), gen.Path(3).WithFullSelfLoops()},
	} {
		checkChainDistanceLaws(t, gs)
	}
}

func checkChainDistanceLaws(t *testing.T, gs []*graph.Graph) {
	t.Helper()
	c := mustProduct(t, gs...)
	fs := factorsOf(Distances, gs...)
	ci := chainIndexFor(t, fs)

	exactEcc := analytics.Eccentricities(c)
	for p := int64(0); p < c.NumVertices(); p++ {
		if got := eccentricityAt(fs, ci.Split(p)); got != exactEcc[p] {
			t.Fatalf("ε law fails at %d: %d != %d", p, got, exactEcc[p])
		}
	}
	if got := diameterOf(fs); got != analytics.Diameter(c) {
		t.Errorf("diameter law: %d != %d", got, analytics.Diameter(c))
	}
	rows := analytics.AllPairsHops(c)
	for p := int64(0); p < c.NumVertices(); p += 3 {
		for q := int64(0); q < c.NumVertices(); q += 5 {
			if got := hopsRow(fs, ci.Split(p))(ci.Split(q)); got != rows[p][q] {
				t.Fatalf("hops law fails at (%d,%d): %d != %d", p, q, got, rows[p][q])
			}
		}
	}

	want := map[int64]int64{}
	for _, e := range exactEcc {
		want[e]++
	}
	got, err := ChainEccentricityHistogram(fs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("histogram %v, want %v", got, want)
	}
}

func TestChainAndPowerCountOverflow(t *testing.T) {
	// A 3-vertex, 9-arc clique-with-loops factor: n^k fits far past the
	// point where arcs^k overflows.
	f := NewFactor(clique3WithLoops(t), Distances)
	fs := copies(f, 21)
	if _, err := at[int64](lawArcs, fs, nil, nil); err == nil {
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
	lf := NewFactor(triangleGraph(t), Triangles)
	if _, err := ChainNumEdges(copies(lf, 40)); err == nil {
		t.Error("want ChainNumEdges overflow at k=40")
	}
	if _, err := ChainGlobalTriangles(copies(lf, 40)); err == nil {
		t.Error("want ChainGlobalTriangles overflow at k=40")
	}
	if m, err := ChainNumEdges(copies(lf, 3)); err != nil || m != 108 {
		t.Errorf("ChainNumEdges(triangle ×3) = %d (err %v), want 108", m, err)
	}
	// Per-vertex counts overflow before n_C does: on K₁₀₀^{⊗5} (n_C =
	// 10¹⁰) t_p = 2⁴·4851⁵ ≈ 4.3e19 at every p.
	k100 := copies(NewFactor(gen.Clique(100), Triangles), 5)
	if tp, err := ChainVertexTrianglesAt(k100, make([]int64, 5)); err == nil {
		t.Errorf("want vertex-triangle overflow on K100^5, got %d", tp)
	}
	// The ε histogram's counts sum to n_C: it refuses where n_C overflows.
	if _, err := ChainEccentricityHistogram(copies(f, 40)); err == nil {
		t.Error("want eccentricity-histogram overflow at 3^40 vertices")
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

// wantPanic runs call and fails unless it panics with a message naming
// law.
func wantPanic(t *testing.T, law string, call func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if msg, _ := recover().(string); !strings.Contains(msg, law) {
			t.Errorf("panic %q, want one naming %s", msg, law)
		}
	}()
	call()
}

// Cor. 4 needs full self loops: on loop-free P₂ ⊗ P₂ the materialized ε
// at (0,0) is −1 (the product is two disjoint edges), where the max law
// would answer 2.
func TestChainEccentricityAtNeedsLoops(t *testing.T) {
	p2 := NewFactor(gen.Path(2), Distances)
	wantPanic(t, "Cor. 4", func() { eccentricityAt([]*Factor{p2, p2}, []int64{0, 0}) })
}

// Cor. 3 and Thm. 3 need full self loops too: loop-free P₂ ⊗ P₂ is two
// disjoint edges, so its materialized diameter and hops(0, 1) read
// Unreachable, where the max law over P₂'s diameter answers 2. Thm. 5 and
// Cor. 5 ask full loops of A alone: (P₂+I) ⊗ P₂ is connected, and its
// diameter 2 lies in the sandwich [2, 3] around max{diam_A, diam_B}.
func TestChainDistanceLawsNeedFullLoops(t *testing.T) {
	c := mustProduct(t, gen.Path(2), gen.Path(2))
	if d, h := analytics.Diameter(c), analytics.Hops(c, 0)[1]; d != analytics.Unreachable || h != analytics.Unreachable {
		t.Fatalf("materialized P₂⊗P₂: diameter %d, hops(0,1) %d, want both Unreachable", d, h)
	}
	p2, p2l := NewFactor(gen.Path(2), Distances), NewFactor(gen.Path(2).WithFullSelfLoops(), Distances)
	fs := []*Factor{p2, p2}
	wantPanic(t, "Cor. 3 requires full self loops", func() { diameterOf(fs) })
	wantPanic(t, "Thm. 3 requires full self loops", func() { hopsRow(fs, []int64{0, 0})([]int64{0, 1}) })
	lo, hi := diameterBounds(p2l, p2)
	if d := analytics.Diameter(mustProduct(t, p2l.G, p2.G)); lo != 2 || hi != 3 || d < lo || d > hi {
		t.Errorf("Cor. 5 on (P₂+I)⊗P₂: diameter %d, bounds [%d,%d], want 2 in [2,3]", d, lo, hi)
	}
}

// t_C = 2·t_A ⊗ t_B needs loop-free factors: on (K₃+I)⊗(K₃+I) every
// vertex is in 28 triangles, where the law would answer 2.
func TestChainVertexTrianglesAtNeedsLoopFree(t *testing.T) {
	k3 := NewFactor(clique3WithLoops(t), Triangles)
	wantPanic(t, "t_C = 2^{k−1}·⊗t_d", func() { _, _ = ChainVertexTrianglesAt([]*Factor{k3, k3}, []int64{0, 0}) })
}

// τ_C = 6·τ_A·τ_B needs loop-free factors: (K₃+I)⊗(K₃+I) has Cor. 1's
// 84 triangles, where the law would answer 6.
func TestChainGlobalTrianglesNeedsLoopFree(t *testing.T) {
	k3 := NewFactor(clique3WithLoops(t), Triangles)
	wantPanic(t, "τ_C = 6^{k−1}·Π τ_d", func() { _, _ = ChainGlobalTriangles([]*Factor{k3, k3}) })
}

// checkChainClosenessAndHops holds the hops row at every pair and
// ChainClosenessAt at every vertex of the full-loop chain gs to the
// materialized product.
func checkChainClosenessAndHops(t *testing.T, gs []*graph.Graph) {
	t.Helper()
	c := mustProduct(t, gs...)
	fs := factorsOf(Distances, gs...)
	ci := chainIndexFor(t, fs)
	for p := int64(0); p < c.NumVertices(); p++ {
		hopsFrom := hopsRow(fs, ci.Split(p))
		for q, h := range analytics.Hops(c, p) {
			if got := hopsFrom(ci.Split(int64(q))); got != h {
				t.Fatalf("hops law fails at (%d,%d): %d != %d", p, q, got, h)
			}
		}
		if got, want := ChainClosenessAt(fs, ci.Split(p)), analytics.Closeness(c, p); math.Abs(got-want) > 1e-9 {
			t.Fatalf("closeness law fails at %d: %v != %v", p, got, want)
		}
	}
}

// Three different full-loop factors, one of them disconnected
// ((2K₂+I)⊗(P₃+I)⊗(A+I)): the closeness fold multiplies three profiles,
// and an unreachable digit pair drops out of every count.
func TestChainClosenessAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(431))
	twoK2, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range [][]*graph.Graph{
		{
			randomConnectedLoopFree(rng, 5).WithFullSelfLoops(),
			gen.Path(4).WithFullSelfLoops(),
			randomConnectedLoopFree(rng, 4).WithFullSelfLoops(),
		},
		{twoK2.WithFullSelfLoops(), gen.Path(3).WithFullSelfLoops(), randomConnectedLoopFree(rng, 4).WithFullSelfLoops()},
	} {
		checkChainClosenessAndHops(t, gs)
	}
}

// FuzzChainDistanceLaws holds hops, ε, the diameter and closeness of
// three drawn factors with full loops — disconnected ones among them — to
// the materialized product.
func FuzzChainDistanceLaws(f *testing.F) {
	addFactorSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := drawFactors(t, data)
		for d, g := range gs {
			gs[d] = g.WithFullSelfLoops()
		}
		checkChainDistanceLaws(t, gs)
		checkChainClosenessAndHops(t, gs)
	})
}
