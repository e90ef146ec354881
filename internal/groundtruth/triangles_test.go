package groundtruth

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// checkChainTriangleLaws holds the triangle and clustering chain laws of
// loop-free factors gs to exact counts on the materialized products: Δ_C,
// the t histogram and both clustering forms to ⊗A_d, Cor. 1 (point,
// global and histogram) and Cor. 2 to ⊗(A_d+I). A clustering law answers NaN exactly where the
// measured coefficient is undefined (a product degree below 2), and the
// measured value everywhere else.
func checkChainTriangleLaws(t *testing.T, gs []*graph.Graph) {
	t.Helper()
	ch, err := core.NewChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	plain := mustProduct(t, ch.Factors()...)
	looped := mustProduct(t, ch.WithFullSelfLoops().Factors()...)
	fs := factorsOf(Triangles, gs...)
	ci := chainIndexFor(t, fs)
	near := func(law, exact float64) bool {
		return math.IsNaN(law) && math.IsNaN(exact) || math.Abs(law-exact) <= 1e-9
	}

	tri, eta, xi := analytics.Triangles(plain), analytics.VertexClustering(plain), analytics.EdgeClustering(plain)
	ltri := analytics.Triangles(looped)
	for p := int64(0); p < plain.NumVertices(); p++ {
		cp := ci.Split(p)
		if got, err := at[float64](lawVertexClustering, fs, cp, nil); err != nil || !near(got, eta[p]) {
			t.Fatalf("η_%d: law %v (err %v), measured %v", p, got, err, eta[p])
		}
		if got, err := at[int64](lawCor1VertexTriangles, fs, cp, nil); err != nil || got != ltri.Vertex[p] {
			t.Fatalf("Cor. 1 t_%d: law %d (err %v), measured %d", p, got, err, ltri.Vertex[p])
		}
	}
	if got, err := ChainGlobalTrianglesFullLoops(fs); err != nil || got != ltri.Global {
		t.Fatalf("Cor. 1 τ: law %d (err %v), measured %d", got, err, ltri.Global)
	}
	if got, err := at[map[int64]int64](lawTriangleHistogram, fs, nil, nil); err != nil || !reflect.DeepEqual(got, histOf(tri.Vertex)) {
		t.Fatalf("t histogram: law %v (err %v), measured %v", got, err, histOf(tri.Vertex))
	}
	if got, err := at[map[int64]int64](lawCor1TriangleHistogram, fs, nil, nil); err != nil || !reflect.DeepEqual(got, histOf(ltri.Vertex)) {
		t.Fatalf("Cor. 1 histogram: law %v (err %v), measured %v", got, err, histOf(ltri.Vertex))
	}
	idx := int64(-1)
	plain.Arcs(func(u, v int64) bool {
		idx++
		cu, cv := ci.Split(u), ci.Split(v)
		if got, err := at[int64](lawEdgeTriangles, fs, cu, cv); err != nil || got != tri.Arc[idx] {
			t.Fatalf("Δ(%d,%d): law %d (err %v), measured %d", u, v, got, err, tri.Arc[idx])
		}
		if got, err := at[float64](lawEdgeClustering, fs, cu, cv); err != nil || !near(got, xi[idx]) {
			t.Fatalf("ξ(%d,%d): law %v (err %v), measured %v", u, v, got, err, xi[idx])
		}
		return true
	})
	idx = -1
	looped.Arcs(func(u, v int64) bool {
		if idx++; u == v {
			return true
		}
		if got, err := at[int64](lawCor2EdgeTriangles, fs, ci.Split(u), ci.Split(v)); err != nil || got != ltri.Arc[idx] {
			t.Fatalf("Cor. 2 Δ(%d,%d): law %d (err %v), measured %d", u, v, got, err, ltri.Arc[idx])
		}
		return true
	})
}

// Three different loop-free factors, with and without the +I: the fold's
// state crosses a digit where it matters only at k ≥ 3 (d′ feeds the next
// step; Cor. 2's diagonal flag can be set, then cleared).
func TestChainTriangleLawsAgainstMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(421))
	paw, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	for _, gs := range [][]*graph.Graph{
		{gen.Clique(3), paw, gen.Ring(4)},
		{paw, gen.Clique(4), gen.Path(3)},
		{randomLoopFree(rng, 5), randomLoopFree(rng, 4), randomLoopFree(rng, 4)},
		{randomConnectedLoopFree(rng, 5), gen.Clique(3), randomConnectedLoopFree(rng, 4)},
	} {
		checkChainTriangleLaws(t, gs)
	}
}

// drawFactors reads three loop-free factors of 1–5 vertices from a fuzz
// input: per factor a byte for n, a byte for the edge count m (below 8)
// and m bytes whose nibbles are the endpoints, loops dropped; missing
// bytes read 0.
func drawFactors(t *testing.T, data []byte) []*graph.Graph {
	t.Helper()
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	gs := make([]*graph.Graph, 3)
	for d := range gs {
		n, m := 1+next()%5, next()%8
		var edges []graph.Edge
		for ; m > 0; m-- {
			b := next()
			if u, v := b&15%n, b>>4%n; u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.NewUndirected(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		gs[d] = g
	}
	return gs
}

// FuzzChainTriangleLaws holds the chain triangle and clustering laws of
// three drawn factors to the materialized products.
func FuzzChainTriangleLaws(f *testing.F) {
	addFactorSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) { checkChainTriangleLaws(t, drawFactors(t, data)) })
}

func addFactorSeeds(f *testing.F) {
	f.Add([]byte{2, 3, 0x10, 0x20, 0x21, 3, 1, 0x10, 1, 2, 0x10, 0x20})
	f.Add([]byte{4, 7, 0x10, 0x20, 0x21, 0x30, 0x31, 0x32, 0x32, 2, 2, 0x10, 0x21, 2, 2, 0x10, 0x32})
	f.Add([]byte{0, 0, 1, 1, 0x10, 4, 4, 0x10, 0x21, 0x32, 0x43})
}

// The clustering laws answer wherever the product's degree allows, not
// only where every digit's does: on P₂ ⊗ K₄ vertex (0,0) has degree 3 and
// no triangle, so η = 0, and edge (0,5) — (0,0)–(1,1) — has ξ = 0.
func TestChainClusteringAtLowDigitDegree(t *testing.T) {
	gs := []*graph.Graph{gen.Path(2), gen.Clique(4)}
	c := mustProduct(t, gs...)
	fs := factorsOf(Triangles, gs...)
	ci := chainIndexFor(t, fs)
	if eta := analytics.VertexClustering(c)[0]; eta != 0 {
		t.Fatalf("measured η_0 = %v, want 0", eta)
	}
	if xi := analytics.EdgeClustering(c)[c.ArcIndex(0, 5)]; xi != 0 {
		t.Fatalf("measured ξ(0,5) = %v, want 0", xi)
	}
	if eta, err := at[float64](lawVertexClustering, fs, ci.Split(0), nil); err != nil || eta != 0 {
		t.Errorf("η_0 = %v (err %v), want 0", eta, err)
	}
	if xi, err := at[float64](lawEdgeClustering, fs, ci.Split(0), ci.Split(5)); err != nil || xi != 0 {
		t.Errorf("ξ(0,5) = %v (err %v), want 0", xi, err)
	}
}

// Each loop-free law refuses factors with loops, naming itself, rather
// than answer for a product its hypothesis excludes: on (K₃+I)⊗(K₃+I),
// built by core.Product of the looped factors, the measured η is 7/9 and
// Δ(0,4) is 7, where Thm. 1 and Δ_C = Δ_A ⊗ Δ_B read off the looped
// factors would answer 1/18 and 1.
func TestChainLoopFreeLawsRefuseLoops(t *testing.T) {
	k3 := clique3WithLoops(t)
	c := mustProduct(t, k3, k3)
	if eta := analytics.VertexClustering(c)[0]; math.Abs(eta-7.0/9) > 1e-12 {
		t.Fatalf("measured η_0 = %v, want 7/9", eta)
	}
	if d := analytics.EdgeTriangles(c, 0, 4); d != 7 {
		t.Fatalf("measured Δ(0,4) = %d, want 7", d)
	}
	fs := factorsOf(Triangles, k3, k3)
	p, q := []int64{0, 0}, []int64{1, 1}
	for law, call := range map[string]func(){
		"Thm. 1":      func() { _, _ = at[float64](lawVertexClustering, fs, p, nil) },
		"Thm. 2":      func() { _, _ = at[float64](lawEdgeClustering, fs, p, q) },
		"Δ_C = Π Δ_d": func() { _, _ = at[int64](lawEdgeTriangles, fs, p, q) },
		"Cor. 1":      func() { _, _ = at[int64](lawCor1VertexTriangles, fs, p, nil) },
		"Cor. 2":      func() { _, _ = at[int64](lawCor2EdgeTriangles, fs, p, q) },
	} {
		wantPanic(t, law+" requires a loop-free factor", call)
	}
	wantPanic(t, "Cor. 1 requires a loop-free factor", func() { _, _ = ChainGlobalTrianglesFullLoops(fs) })
}

// The +I folds refuse a count past int64 rather than wrap: on
// (K₁₀₀+I)^{⊗5} = K_{10¹⁰}+I every vertex is in C(10¹⁰−1, 2) ≈ 5·10¹⁹
// triangles.
func TestChainFullLoopTrianglesOverflow(t *testing.T) {
	fs := copies(NewFactor(gen.Clique(100), Triangles), 5)
	p, q := make([]int64, 5), []int64{0, 0, 0, 0, 1}
	if got, err := at[int64](lawCor1VertexTriangles, fs, p, nil); err == nil {
		t.Errorf("want Cor. 1 overflow, got %d", got)
	}
	if got, err := ChainGlobalTrianglesFullLoops(fs); err == nil {
		t.Errorf("want Cor. 1 τ overflow, got %d", got)
	}
	if got, err := at[int64](lawCor2EdgeTriangles, fs, p, q); err != nil || got != 1e10-2 {
		t.Errorf("Cor. 2 Δ on K_{10¹⁰}: %d (err %v), want 10¹⁰−2", got, err)
	}
}
