package groundtruth

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// randomLoopFree returns a random loop-free undirected graph.
func randomLoopFree(rng *rand.Rand, maxN int64) *graph.Graph {
	n := 2 + rng.Int63n(maxN-1)
	m := 1 + rng.Int63n(3*n)
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v {
			continue
		}
		edges = append(edges, graph.Edge{U: u, V: v})
	}
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// randomConnectedLoopFree retries until the graph is connected (needed by
// distance laws so eccentricities are finite).
func randomConnectedLoopFree(rng *rand.Rand, maxN int64) *graph.Graph {
	for {
		g := randomLoopFree(rng, maxN)
		if g.IsConnected() {
			return g
		}
	}
}

// mustProduct materializes the product the laws are checked against.
func mustProduct(t *testing.T, gs ...*graph.Graph) *graph.Graph {
	t.Helper()
	c, err := core.Product(gs...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// ---------- degree law ----------

func TestDegreeLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		ga, gb := randomLoopFree(rng, 9), randomLoopFree(rng, 9)
		a, b := NewFactor(ga, 0), NewFactor(gb, 0)
		c := mustProduct(t, ga, gb)
		fs := []*Factor{a, b}
		checkDegreeLaw(t, fs, c)
		n, errN := ChainNumVertices(fs)
		m, errM := ChainNumEdges(fs)
		if errN != nil || errM != nil || n != c.NumVertices() || m != c.NumEdges() {
			t.Fatalf("trial %d: size laws broken", trial)
		}
	}
}

func TestDegreeLawWithSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 15; trial++ {
		ga, gb := randomLoopFree(rng, 8), randomLoopFree(rng, 8)
		// The degree law over the +I factors is the degree of (A+I)⊗(B+I).
		fs := []*Factor{NewFactor(ga.WithFullSelfLoops(), 0), NewFactor(gb.WithFullSelfLoops(), 0)}
		c := mustProduct(t, ga.WithFullSelfLoops(), gb.WithFullSelfLoops())
		checkDegreeLaw(t, fs, c)
	}
}

// checkDegreeLaw holds ChainDegreeAt at every vertex, and the degree
// histogram row, to the materialized product c.
func checkDegreeLaw(t *testing.T, fs []*Factor, c *graph.Graph) {
	t.Helper()
	ci := chainIndexFor(t, fs)
	for p := int64(0); p < c.NumVertices(); p++ {
		if got := ChainDegreeAt(fs, ci.Split(p)); got != c.Degree(p) {
			t.Fatalf("d_%d = %d, predicted %d", p, c.Degree(p), got)
		}
	}
	if h, err := at[map[int64]int64](lawDegreeHistogram, fs, nil, nil); err != nil || !reflect.DeepEqual(h, histOf(c.Degrees())) {
		t.Fatalf("degree histogram %v (err %v), want %v", h, err, histOf(c.Degrees()))
	}
}

// ---------- triangle laws, loop-free product ----------

func TestVertexTriangleLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	for trial := 0; trial < 20; trial++ {
		ga, gb := randomLoopFree(rng, 9), randomLoopFree(rng, 9)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga, gb)
		exact := analytics.Triangles(c)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		for p := int64(0); p < c.NumVertices(); p++ {
			if got, err := ChainVertexTrianglesAt(fs, ci.Split(p)); err != nil || got != exact.Vertex[p] {
				t.Fatalf("trial %d: t_%d exact %d, predicted %d (err %v)", trial, p, exact.Vertex[p], got, err)
			}
		}
		if h, err := at[map[int64]int64](lawTriangleHistogram, fs, nil, nil); err != nil || !reflect.DeepEqual(h, histOf(exact.Vertex)) {
			t.Fatalf("trial %d: triangle histogram %v (err %v), want %v", trial, h, err, histOf(exact.Vertex))
		}
		if got, err := ChainGlobalTriangles(fs); err != nil || got != exact.Global {
			t.Fatalf("trial %d: τ exact %d, predicted %d (err %v)", trial, exact.Global, got, err)
		}
	}
}

func TestEdgeTriangleLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for trial := 0; trial < 20; trial++ {
		ga, gb := randomLoopFree(rng, 8), randomLoopFree(rng, 8)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga, gb)
		exact := analytics.Triangles(c)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		idx := int64(-1)
		c.Arcs(func(u, v int64) bool {
			idx++
			if u == v {
				return true
			}
			if got, err := at[int64](lawEdgeTriangles, fs, ci.Split(u), ci.Split(v)); err != nil || got != exact.Arc[idx] {
				t.Fatalf("trial %d: Δ(%d,%d) exact %d, predicted %d (err %v)",
					trial, u, v, exact.Arc[idx], got, err)
			}
			return true
		})
	}
}

// ---------- Cor. 1 / Cor. 2: full self loops ----------

func TestCor1VertexTrianglesFullLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for trial := 0; trial < 20; trial++ {
		ga, gb := randomLoopFree(rng, 8), randomLoopFree(rng, 8)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga.WithFullSelfLoops(), gb.WithFullSelfLoops())
		exact := analytics.Triangles(c)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		for p := int64(0); p < c.NumVertices(); p++ {
			if pred, err := at[int64](lawCor1VertexTriangles, fs, ci.Split(p), nil); err != nil || exact.Vertex[p] != pred {
				t.Fatalf("trial %d: Cor.1 t_%d exact %d, predicted %d (err %v)",
					trial, p, exact.Vertex[p], pred, err)
			}
		}
		if got, err := ChainGlobalTrianglesFullLoops(fs); err != nil || got != exact.Global {
			t.Fatalf("trial %d: Cor.1 τ exact %d, predicted %d (err %v)", trial, exact.Global, got, err)
		}
	}
}

func TestCor1KnownExample(t *testing.T) {
	// A = B = K2: C = (K2+I)⊗(K2+I) = K4 with loops; t_p = 3 everywhere.
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	a := NewFactor(k2, Triangles)
	ci := core.MustChainIndex(2, 2)
	for p := int64(0); p < 4; p++ {
		if got, err := at[int64](lawCor1VertexTriangles, []*Factor{a, a}, ci.Split(p), nil); err != nil || got != 3 {
			t.Errorf("K2⊗K2 Cor.1 t_%d = %d (err %v), want 3", p, got, err)
		}
	}
}

func TestCor2EdgeTrianglesFullLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 20; trial++ {
		ga, gb := randomLoopFree(rng, 7), randomLoopFree(rng, 7)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga.WithFullSelfLoops(), gb.WithFullSelfLoops())
		exact := analytics.Triangles(c)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		idx := int64(-1)
		c.Arcs(func(u, v int64) bool {
			idx++
			if u == v {
				return true
			}
			if got, err := at[int64](lawCor2EdgeTriangles, fs, ci.Split(u), ci.Split(v)); err != nil || got != exact.Arc[idx] {
				t.Fatalf("trial %d: Cor.2 Δ(%d,%d) exact %d, predicted %d (err %v)",
					trial, u, v, exact.Arc[idx], got, err)
			}
			return true
		})
	}
}

// TestCor2PaperTypo documents why this implementation deviates from the
// printed Cor. 2: on C = (K2+I)⊗(K2+I) = K4+loops, the edge
// (γ(0,0), γ(0,1)) has i=j, and the printed formula gives 4 while the true
// count (and the appendix expansion) give 2.
func TestCor2PaperTypo(t *testing.T) {
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	a := NewFactor(k2, Triangles)
	c := mustProduct(t, k2.WithFullSelfLoops(), k2.WithFullSelfLoops())
	// Edge p=γ(0,0)=0, q=γ(0,1)=1 (A-side diagonal, i=j=0).
	exact := analytics.EdgeTriangles(c, 0, 1)
	if exact != 2 {
		t.Fatalf("exact Δ(0,1) on K4 = %d, want 2", exact)
	}
	if got, err := at[int64](lawCor2EdgeTriangles, []*Factor{a, a}, []int64{0, 0}, []int64{0, 1}); err != nil || got != exact {
		t.Fatalf("corrected Cor.2 = %d (err %v), exact %d", got, err, exact)
	}
	// The printed formula: Δkl(di+1)δ(i,j) + 2(diδ(i,j) + dkδ(k,l) + 1)
	// = 0·2·1 + 2·(1+0+1) = 4 ≠ 2.
	printed := int64(0*2 + 2*(1+0+1))
	if printed == exact {
		t.Fatal("paper formula unexpectedly matches; typo note is stale")
	}
}

func TestCor2PanicsOnLoop(t *testing.T) {
	k2, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	a := NewFactor(k2, Triangles)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for p == q")
		}
	}()
	_, _ = at[int64](lawCor2EdgeTriangles, []*Factor{a, a}, []int64{0, 0}, []int64{0, 0})
}

// TestRequireGuards holds the rows' hypothesis check to each kind of
// loop hypothesis: a loop-free law refuses a factor with a loop, a
// full-loop law one that lacks any loop, and no law refuses a factor
// inside its hypothesis.
func TestRequireGuards(t *testing.T) {
	loopy, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}})
	bare, _ := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}})
	for _, c := range []struct {
		law    *Law
		g      *graph.Graph
		refuse bool
	}{
		{lawGlobalTriangles, loopy, true},
		{lawGlobalTriangles, bare, false},
		{lawDiameter, bare, true},
		{lawDiameter, loopy, true}, // one loop of two
		{lawDiameter, bare.WithFullSelfLoops(), false},
		{lawDegree, loopy, false},
	} {
		err := c.law.check([]*Factor{NewFactor(c.g, c.law.Tiers)}, []int64{0}, nil)
		if (err != nil) != c.refuse {
			t.Errorf("%s on %v: refusal %v, want one: %v", c.law.Name, c.g, err, c.refuse)
		}
	}
}

func TestEdgeTriPanicsOnNonArc(t *testing.T) {
	k2, _ := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}})
	f := NewFactor(k2, Triangles)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for non-arc")
		}
	}()
	f.EdgeTri(0, 2)
}

// ---------- clustering scaling laws ----------

func TestThm1VertexClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for trial := 0; trial < 15; trial++ {
		ga, gb := randomLoopFree(rng, 9), randomLoopFree(rng, 9)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga, gb)
		exact := analytics.VertexClustering(c)
		for p := int64(0); p < c.NumVertices(); p++ {
			i, k := p/b.N(), p%b.N()
			if a.Deg[i] < 2 || b.Deg[k] < 2 {
				continue
			}
			pred, err := at[float64](lawVertexClustering, []*Factor{a, b}, []int64{i, k}, nil)
			if err != nil || math.Abs(exact[p]-pred) > 1e-9 {
				t.Fatalf("trial %d: η(%d) exact %v, predicted %v (err %v)", trial, p, exact[p], pred, err)
			}
		}
	}
}

func TestThetaRange(t *testing.T) {
	if th := Theta(2, 2); math.Abs(th-1.0/3) > 1e-12 {
		t.Errorf("θ(2,2) = %v, want 1/3", th)
	}
	f := func(diRaw, dkRaw uint8) bool {
		di, dk := int64(diRaw%60)+2, int64(dkRaw%60)+2
		th := Theta(di, dk)
		return th >= 1.0/3-1e-12 && th < 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
	// Monotone increasing in each argument.
	if Theta(3, 2) <= Theta(2, 2) || Theta(2, 3) <= Theta(2, 2) {
		t.Error("θ must increase with degree")
	}
}

func TestThm2EdgeClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for trial := 0; trial < 15; trial++ {
		ga, gb := randomLoopFree(rng, 8), randomLoopFree(rng, 8)
		a, b := NewFactor(ga, Triangles), NewFactor(gb, Triangles)
		c := mustProduct(t, ga, gb)
		exact := analytics.EdgeClustering(c)
		nB := b.N()
		idx := int64(-1)
		c.Arcs(func(u, v int64) bool {
			idx++
			if u == v {
				return true
			}
			// Thm. 2 hypothesis: Δ_ij, Δ_kl > 0 and all four factor
			// degrees ≥ 2. Outside it, the law does not apply.
			i, k := u/nB, u%nB
			j, l := v/nB, v%nB
			if a.Deg[i] < 2 || a.Deg[j] < 2 || b.Deg[k] < 2 || b.Deg[l] < 2 ||
				a.EdgeTri(i, j) == 0 || b.EdgeTri(k, l) == 0 {
				return true
			}
			pred, err := at[float64](lawEdgeClustering, []*Factor{a, b}, []int64{i, k}, []int64{j, l})
			if err != nil || math.IsNaN(pred) {
				t.Fatalf("trial %d: ξ(%d,%d) NaN under Thm.2 hypothesis", trial, u, v)
			}
			if math.Abs(exact[idx]-pred) > 1e-9 {
				t.Fatalf("trial %d: ξ(%d,%d) exact %v, predicted %v",
					trial, u, v, exact[idx], pred)
			}
			return true
		})
	}
}

func TestPhiCanBeArbitrarilySmall(t *testing.T) {
	// Thm. 2's point: with disassortative degrees,
	// φ = (d_i−1)(d_l−1)/(d_i·d_k−1) → 0 as d_k grows.
	small := Phi(2, 100, 100, 2)
	if small > 0.05 {
		t.Errorf("φ(2,100,100,2) = %v, expected near 0", small)
	}
	if small <= 0 || small >= 1 {
		t.Errorf("φ out of (0,1): %v", small)
	}
}

// ---------- distances ----------

func TestThm3HopsMaxLaw(t *testing.T) {
	rng := rand.New(rand.NewSource(73))
	for trial := 0; trial < 10; trial++ {
		ga := randomConnectedLoopFree(rng, 7).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 7).WithFullSelfLoops()
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		c := mustProduct(t, ga, gb)
		rows := analytics.AllPairsHops(c)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		for p := int64(0); p < c.NumVertices(); p++ {
			for q := int64(0); q < c.NumVertices(); q++ {
				if got := hopsRow(fs, ci.Split(p))(ci.Split(q)); got != rows[p][q] {
					t.Fatalf("trial %d: hops(%d,%d) exact %d, predicted %d",
						trial, p, q, rows[p][q], got)
				}
			}
		}
	}
}

func TestCor4Eccentricity(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	for trial := 0; trial < 10; trial++ {
		ga := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		c := mustProduct(t, ga, gb)
		exact := analytics.Eccentricities(c)
		pred, err := ChainEccentricities([]*Factor{a, b})
		if err != nil {
			t.Fatal(err)
		}
		for p := range exact {
			if exact[p] != pred[p] {
				t.Fatalf("trial %d: ε(%d) exact %d, predicted %d", trial, p, exact[p], pred[p])
			}
		}
	}
}

func TestCor3Diameter(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 10; trial++ {
		ga := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		c := mustProduct(t, ga, gb)
		if got, want := diameterOf([]*Factor{a, b}), analytics.Diameter(c); got != want {
			t.Fatalf("trial %d: diameter predicted %d, exact %d", trial, got, want)
		}
	}
}

// sandwich returns Thm. 5's and Cor. 5's ±1 bounds [m, m+1] around the
// max law's m, Unreachable on both sides when m is.
func sandwich(m int64) (lo, hi int64) {
	if m == analytics.Unreachable {
		return m, m
	}
	return m, m + 1
}

// diameterBounds is Cor. 5 for A with full self loops and B merely
// undirected: max{diam_A, diam_B} ≤ diam(A⊗B) ≤ max{diam_A, diam_B} + 1.
func diameterBounds(a, b *Factor) (lo, hi int64) {
	return sandwich(analytics.MaxHops(a.Diam, b.Diam))
}

// hopsBounds is Thm. 5 at product vertices p and q of A⊗B:
// max{hops_A, hops_B} ≤ hops_C(p,q) ≤ max{hops_A, hops_B} + 1.
func hopsBounds(a, b *Factor, p, q int64) (lo, hi int64) {
	n := b.N()
	return sandwich(hopsFrom([]*Factor{a, b}, []int64{p / n, p % n})([]int64{q / n, q % n}))
}

func TestThm5AndCor5Bounds(t *testing.T) {
	// A with full self loops, B undirected loop-free.
	rng := rand.New(rand.NewSource(89))
	for trial := 0; trial < 10; trial++ {
		ga := randomConnectedLoopFree(rng, 7).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 7)
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		c := mustProduct(t, ga, gb)
		if !c.IsSymmetric() {
			t.Fatal("product should be symmetric")
		}
		rows := analytics.AllPairsHops(c)
		diamLo, diamHi := diameterBounds(a, b)
		cd := analytics.Diameter(c)
		if cd != analytics.Unreachable && (cd < diamLo || cd > diamHi) {
			t.Fatalf("trial %d: diam %d outside [%d,%d]", trial, cd, diamLo, diamHi)
		}
		for p := int64(0); p < c.NumVertices(); p++ {
			for q := int64(0); q < c.NumVertices(); q++ {
				lo, hi := hopsBounds(a, b, p, q)
				h := rows[p][q]
				if h == analytics.Unreachable {
					continue // B disconnected pairs may be unreachable in C
				}
				if lo == analytics.Unreachable {
					continue
				}
				if h < lo || h > hi {
					t.Fatalf("trial %d: hops(%d,%d)=%d outside [%d,%d]", trial, p, q, h, lo, hi)
				}
			}
		}
	}
}

func TestThm4ClosenessDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for trial := 0; trial < 8; trial++ {
		ga := randomConnectedLoopFree(rng, 7).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 7).WithFullSelfLoops()
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		c := mustProduct(t, ga, gb)
		for p := int64(0); p < c.NumVertices(); p++ {
			exact := analytics.Closeness(c, p)
			if pred := ClosenessAt(a, b, p); math.Abs(exact-pred) > 1e-9 {
				t.Fatalf("trial %d: ζ(%d) exact %v, predicted %v", trial, p, exact, pred)
			}
		}
	}
}

// TestClosenessCompressedMatchesDirect holds Sec. V-B's compressed form,
// ChainClosenessAt at k = 2, to Thm. 4's direct double sum.
func TestClosenessCompressedMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for trial := 0; trial < 10; trial++ {
		ga := randomConnectedLoopFree(rng, 9).WithFullSelfLoops()
		gb := randomConnectedLoopFree(rng, 9).WithFullSelfLoops()
		a, b := NewFactor(ga, Distances), NewFactor(gb, Distances)
		fs := []*Factor{a, b}
		ci := chainIndexFor(t, fs)
		for p := int64(0); p < a.N()*b.N(); p += 3 {
			direct := ClosenessAt(a, b, p)
			compressed := ChainClosenessAt(fs, ci.Split(p))
			if math.Abs(direct-compressed) > 1e-9 {
				t.Fatalf("trial %d: ζ(%d) direct %v, compressed %v", trial, p, direct, compressed)
			}
		}
	}
}

// TestClosenessCompressedDisconnected: on a disconnected factor the
// compressed form needs no fallback — an unreachable pair enters no
// profile — and matches the direct sum and the measured product.
func TestClosenessCompressedDisconnected(t *testing.T) {
	ga, _ := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}})
	gal := ga.WithFullSelfLoops()
	a := NewFactor(gal, Distances)
	fs := []*Factor{a, a}
	ci, c := chainIndexFor(t, fs), mustProduct(t, gal, gal)
	for p := int64(0); p < c.NumVertices(); p++ {
		exact := analytics.Closeness(c, p)
		if d, z := ClosenessAt(a, a, p), ChainClosenessAt(fs, ci.Split(p)); math.Abs(d-exact) > 1e-9 || math.Abs(z-exact) > 1e-9 {
			t.Errorf("ζ(%d): direct %v, compressed %v, measured %v", p, d, z, exact)
		}
	}
}

// ---------- communities ----------

func randomPartition(rng *rand.Rand, n int64, k int) [][]int64 {
	parts := make([][]int64, k)
	for v := int64(0); v < n; v++ {
		b := rng.Intn(k)
		parts[b] = append(parts[b], v)
	}
	out := parts[:0]
	for _, p := range parts {
		if len(p) > 0 {
			out = append(out, p)
		}
	}
	return out
}

func TestThm6CommunityCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 15; trial++ {
		ga, gb := randomLoopFree(rng, 9), randomLoopFree(rng, 9)
		c := mustProduct(t, ga.WithFullSelfLoops(), gb.WithFullSelfLoops())
		pa := randomPartition(rng, ga.NumVertices(), 3)
		pb := randomPartition(rng, gb.NumVertices(), 3)
		statsA := analytics.Communities(ga, pa)
		statsB := analytics.Communities(gb, pb)
		for ai := range pa {
			for bi := range pb {
				pred, _ := CommunityKron([]*graph.Graph{ga, gb}, []analytics.CommunityStats{statsA[ai], statsB[bi]})
				sc := core.KronSet(pa[ai], pb[bi], gb.NumVertices())
				meas := analytics.Community(c, sc)
				if pred.MIn != meas.MIn {
					t.Fatalf("trial %d: m_in predicted %d, exact %d", trial, pred.MIn, meas.MIn)
				}
				if pred.MOut != meas.MOut {
					t.Fatalf("trial %d: m_out predicted %d, exact %d", trial, pred.MOut, meas.MOut)
				}
				if math.Abs(pred.RhoIn-meas.RhoIn) > 1e-12 || math.Abs(pred.RhoOut-meas.RhoOut) > 1e-12 {
					t.Fatalf("trial %d: densities disagree", trial)
				}
			}
		}
	}
}

func TestCor6Cor7Bounds(t *testing.T) {
	rng := rand.New(rand.NewSource(107))
	for trial := 0; trial < 15; trial++ {
		ga, gb := randomLoopFree(rng, 10), randomLoopFree(rng, 10)
		pa := randomPartition(rng, ga.NumVertices(), 3)
		pb := randomPartition(rng, gb.NumVertices(), 3)
		statsA := analytics.Communities(ga, pa)
		statsB := analytics.Communities(gb, pb)
		for ai := range pa {
			for bi := range pb {
				sa, sb := statsA[ai], statsB[bi]
				pred, _ := CommunityKron([]*graph.Graph{ga, gb}, []analytics.CommunityStats{sa, sb})
				if sa.Size > 1 && sb.Size > 1 {
					if lo := RhoInLowerBound(sa, sb); pred.RhoIn < lo-1e-12 {
						t.Fatalf("trial %d: Cor.6 violated: ρ_in %v < bound %v", trial, pred.RhoIn, lo)
					}
				}
				if sa.MOut >= sa.Size && sb.MOut >= sb.Size {
					if hi := RhoOutUpperBound(ga, gb, sa, sb); pred.RhoOut > hi+1e-12 {
						t.Fatalf("trial %d: Cor.7 violated: ρ_out %v > bound %v", trial, pred.RhoOut, hi)
					}
				}
			}
		}
	}
}

// TestCommunitiesKronChain folds Thm. 6 over three different loop-free
// factors and holds every community of the Kronecker partition to its
// counts and densities on the materialized ⊗(A_d+I).
func TestCommunitiesKronChain(t *testing.T) {
	rng := rand.New(rand.NewSource(109))
	for trial := 0; trial < 6; trial++ {
		gs := []*graph.Graph{randomLoopFree(rng, 6), randomLoopFree(rng, 5), randomLoopFree(rng, 4)}
		ch, err := core.NewChain(gs...)
		if err != nil {
			t.Fatal(err)
		}
		c := mustProduct(t, ch.WithFullSelfLoops().Factors()...)
		parts := make([][][]int64, len(gs))
		stats := make([][]analytics.CommunityStats, len(gs))
		dims := make([]int64, len(gs))
		for d, g := range gs {
			parts[d] = randomPartition(rng, g.NumVertices(), 2)
			stats[d] = analytics.Communities(g, parts[d])
			dims[d] = g.NumVertices()
		}
		pred, err := CommunitiesKron(gs, stats)
		if err != nil {
			t.Fatal(err)
		}
		meas := analytics.Communities(c, core.KronPartition(parts, dims))
		if int64(len(pred)) != NumCommunities(parts) || len(pred) != len(meas) {
			t.Fatalf("trial %d: %d communities predicted, %d measured, |Π_C| = %d", trial, len(pred), len(meas), NumCommunities(parts))
		}
		for x := range pred {
			p, m := pred[x], meas[x]
			if p.Size != m.Size || p.MIn != m.MIn || p.MOut != m.MOut ||
				math.Abs(p.RhoIn-m.RhoIn) > 1e-12 || math.Abs(p.RhoOut-m.RhoOut) > 1e-12 {
				t.Fatalf("trial %d, S_%d: predicted %+v, measured %+v", trial, x, p, m)
			}
		}
	}
}

func TestEx1DisjointCliques(t *testing.T) {
	// Ex. 1: x_A cliques of size y_A ⊗ x_B cliques of size y_B gives
	// x_A·x_B cliques of size y_A·y_B.
	cliques := func(x, y int64) *graph.Graph {
		var edges []graph.Edge
		for c := int64(0); c < x; c++ {
			for u := int64(0); u < y; u++ {
				for v := u + 1; v < y; v++ {
					edges = append(edges, graph.Edge{U: c*y + u, V: c*y + v})
				}
			}
		}
		g, err := graph.NewUndirected(x*y, edges)
		if err != nil {
			panic(err)
		}
		return g
	}
	ga, gb := cliques(2, 3), cliques(3, 2)
	c := mustProduct(t, ga.WithFullSelfLoops(), gb.WithFullSelfLoops())
	_, count := c.ConnectedComponents()
	if count != 6 {
		t.Fatalf("components = %d, want 2·3 = 6", count)
	}
	// Each component is a clique of size 6 with loops: every vertex degree 6.
	for v := int64(0); v < c.NumVertices(); v++ {
		if c.Degree(v) != 6 {
			t.Fatalf("degree(%d) = %d, want 6 (clique of 6 + loop)", v, c.Degree(v))
		}
	}
}

func TestNumCommunities(t *testing.T) {
	if NumCommunities([][][]int64{{{0}, {1}}, {{0}, {1}, {2}}}) != 6 {
		t.Error("|Π_C| should be 6")
	}
}

// combine under the max law must agree with brute-force pair
// enumeration, Unreachable values included.
func TestMaxLawHistogram(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		xs := make([]int64, 1+rng.Intn(20))
		ys := make([]int64, 1+rng.Intn(20))
		for i := range xs {
			xs[i] = rng.Int63n(7) - 1
		}
		for i := range ys {
			ys[i] = rng.Int63n(7) - 1
		}
		return reflect.DeepEqual(combine(histOf(xs), histOf(ys), maxHops), bruteCombine(xs, ys, maxHops))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// FuzzMaxLaw holds the histogram combine to an O(|x|·|y|) enumeration of
// the pairs of two value lists under both kinds of op a vertex law folds
// with: the max law of ε, where a byte's low three bits are a value in
// [−1, 6] (−1 is Unreachable), and the checked products of d and t,
// where they are a value in [0, 7] shifted left by 8× the next three
// bits, so products overflow and combine must refuse them. The first
// byte splits the input.
func FuzzMaxLaw(f *testing.F) {
	f.Add([]byte{2, 0, 3, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 0})       // an Unreachable on each side
	f.Add([]byte{3, 1, 2, 3, 0, 7}) // Unreachable only on the right
	f.Add([]byte{0, 5, 5})          // empty left side
	f.Add([]byte{1, 63, 63})        // 7·2⁵⁶ squared overflows
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		split := min(int(data[0]), len(data)-1)
		for _, law := range []vector{eccentricities, degrees, triangles} {
			vals := make([]int64, len(data)-1)
			for i, b := range data[1:] {
				if vals[i] = int64(b%8) - 1; law.name != "eccentricity" {
					vals[i] = int64(b%8) << (b / 8 % 8 * 8)
				}
			}
			xs, ys := vals[:split], vals[split:]
			if got, want := combine(histOf(xs), histOf(ys), law.op), bruteCombine(xs, ys, law.op); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: combine(%v, %v) = %v, brute force %v", law.name, xs, ys, got, want)
			}
		}
	})
}

func histOf(vs []int64) map[int64]int64 {
	h := map[int64]int64{}
	for _, v := range vs {
		h[v]++
	}
	return h
}

// bruteCombine counts op(x, y) over every pair, nil if op overflows on
// any.
func bruteCombine(xs, ys []int64, op func(x, y int64) (int64, bool)) map[int64]int64 {
	out := map[int64]int64{}
	for _, x := range xs {
		for _, y := range ys {
			v, ok := op(x, y)
			if !ok {
				return nil
			}
			out[v]++
		}
	}
	return out
}

// ChainEccentricityHistogram must equal the histogram of the materialized ε_C.
func TestEccentricityHistogramMatchesVector(t *testing.T) {
	rng := rand.New(rand.NewSource(211))
	ga := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
	gb := randomConnectedLoopFree(rng, 8).WithFullSelfLoops()
	fs := []*Factor{NewFactor(ga, Distances), NewFactor(gb, Distances)}
	hist, err := ChainEccentricityHistogram(fs)
	if err != nil {
		t.Fatal(err)
	}
	vec, err := ChainEccentricities(fs)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[int64]int64{}
	for _, e := range vec {
		counts[e]++
	}
	if len(hist) != len(counts) {
		t.Fatalf("histogram size %d, want %d", len(hist), len(counts))
	}
	for k, v := range counts {
		if hist[k] != v {
			t.Fatalf("hist[%d] = %d, want %d", k, hist[k], v)
		}
	}
}

// Weichsel's theorem (paper ref [1]): A⊗B connectivity from factor
// bipartiteness, validated against materialized component counts.
func TestWeichselProductComponents(t *testing.T) {
	even := func(n int64) *graph.Graph { // even ring = bipartite
		edges := make([]graph.Edge, n)
		for v := int64(0); v < n; v++ {
			edges[v] = graph.Edge{U: v, V: (v + 1) % n}
		}
		g, _ := graph.NewUndirected(n, edges)
		return g
	}
	odd := func(n int64) *graph.Graph { return even(n) } // odd ring = non-bipartite
	cases := []struct {
		name string
		a, b *graph.Graph
		want int64
	}{
		{"bipartite ⊗ bipartite", even(4), even(6), 2},
		{"bipartite ⊗ odd", even(4), odd(5), 1},
		{"odd ⊗ odd", odd(3), odd(5), 1},
		{"loops force connectivity", even(4).WithFullSelfLoops(), even(6).WithFullSelfLoops(), 1},
	}
	for _, tc := range cases {
		got, err := ProductComponents([]*graph.Graph{tc.a, tc.b})
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if got != tc.want {
			t.Errorf("%s: predicted %d, want %d", tc.name, got, tc.want)
		}
		c := mustProduct(t, tc.a, tc.b)
		if _, meas := c.ConnectedComponents(); meas != got {
			t.Errorf("%s: predicted %d, measured %d", tc.name, got, meas)
		}
	}
	// Random validation.
	rng := rand.New(rand.NewSource(501))
	for trial := 0; trial < 15; trial++ {
		ga := randomConnectedLoopFree(rng, 8)
		gb := randomConnectedLoopFree(rng, 8)
		if ga.NumEdges() == 0 || gb.NumEdges() == 0 {
			continue
		}
		pred, err := ProductComponents([]*graph.Graph{ga, gb})
		if err != nil {
			t.Fatal(err)
		}
		c := mustProduct(t, ga, gb)
		if _, meas := c.ConnectedComponents(); meas != pred {
			t.Fatalf("trial %d: Weichsel predicted %d, measured %d", trial, pred, meas)
		}
	}
	// Every triple of K₂, P₃, K₃, C₄ and K₂ with a loop: b bipartite
	// factors give 2^max(b−1, 0) components of the materialized product.
	k2loop, err := graph.NewUndirected(2, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	small := []*graph.Graph{gen.Path(2), gen.Path(3), gen.Clique(3), gen.Ring(4), k2loop}
	for _, x := range small {
		for _, y := range small {
			for _, z := range small {
				gs := []*graph.Graph{x, y, z}
				pred, err := ProductComponents(gs)
				if err != nil {
					t.Fatal(err)
				}
				c := mustProduct(t, gs...)
				if _, meas := c.ConnectedComponents(); meas != pred {
					t.Errorf("%v ⊗ %v ⊗ %v: Weichsel predicted %d, measured %d", x, y, z, pred, meas)
				}
			}
		}
	}
	// Error paths.
	dis, _ := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}})
	if _, err := ProductComponents([]*graph.Graph{dis, dis}); err == nil {
		t.Error("disconnected factors should error")
	}
}
