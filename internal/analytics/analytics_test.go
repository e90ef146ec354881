package analytics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"kronlab/internal/graph"
	"kronlab/internal/matrix"
)

func randomGraph(rng *rand.Rand, maxN int64, loops bool) *graph.Graph {
	n := 1 + rng.Int63n(maxN)
	m := rng.Int63n(3*n + 1)
	edges := make([]graph.Edge, 0, m)
	for i := int64(0); i < m; i++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if !loops && u == v {
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

func mustUnd(t *testing.T, n int64, edges []graph.Edge) *graph.Graph {
	t.Helper()
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func triangle(t *testing.T) *graph.Graph {
	return mustUnd(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}})
}

func path(t *testing.T, n int64) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for v := int64(0); v+1 < n; v++ {
		edges = append(edges, graph.Edge{U: v, V: v + 1})
	}
	return mustUnd(t, n, edges)
}

// ---------- BFS / hops ----------

func TestBFSPath(t *testing.T) {
	g := path(t, 5)
	d := BFS(g, 0)
	for v := int64(0); v < 5; v++ {
		if d[v] != v {
			t.Errorf("dist(0,%d) = %d, want %d", v, d[v], v)
		}
	}
}

func TestBFSUnreachable(t *testing.T) {
	g := mustUnd(t, 4, []graph.Edge{{U: 0, V: 1}})
	d := BFS(g, 0)
	if d[2] != Unreachable || d[3] != Unreachable {
		t.Errorf("expected unreachable, got %v", d)
	}
}

func TestHopsDiagonalConvention(t *testing.T) {
	// Def. 9: hops(i,i) = 1 with a self loop, 2 with a neighbor,
	// unreachable if isolated.
	g := mustUnd(t, 3, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}})
	if h := Hops(g, 0); h[0] != 1 {
		t.Errorf("loop vertex: hops(0,0) = %d, want 1", h[0])
	}
	if h := Hops(g, 1); h[1] != 2 {
		t.Errorf("loop-free vertex with neighbor: hops(1,1) = %d, want 2", h[1])
	}
	if h := Hops(g, 2); h[2] != Unreachable {
		t.Errorf("isolated: hops(2,2) = %d, want unreachable", h[2])
	}
}

// Oracle: hops(i,j) = min{h ≥ 1 : (Aʰ)_ij > 0} via matrix powers.
func TestHopsMatchesMatrixPowerOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(rng, 8, true)
		n := int(g.NumVertices())
		adj := matrix.FromGraph(g)
		pow := adj.Clone()
		oracle := make([][]int64, n)
		for i := range oracle {
			oracle[i] = make([]int64, n)
			for j := range oracle[i] {
				oracle[i][j] = Unreachable
			}
		}
		for h := int64(1); h <= int64(n)+2; h++ {
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if oracle[i][j] == Unreachable && pow.At(i, j) > 0 {
						oracle[i][j] = h
					}
				}
			}
			pow = pow.Mul(adj)
		}
		rows := AllPairsHops(g)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if rows[i][int64(j)] != oracle[i][j] {
					t.Fatalf("trial %d: hops(%d,%d) = %d, oracle %d",
						trial, i, j, rows[i][j], oracle[i][j])
				}
			}
		}
	}
}

func TestHopsSymmetricOnUndirected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, true)
		rows := AllPairsHops(g)
		for i := int64(0); i < g.NumVertices(); i++ {
			for j := int64(0); j < g.NumVertices(); j++ {
				if rows[i][j] != rows[j][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// ---------- eccentricity / diameter / closeness ----------

func TestEccentricityPath(t *testing.T) {
	g := path(t, 5)
	ecc := Eccentricities(g)
	want := []int64{4, 3, 2, 3, 4}
	for v := range want {
		if ecc[v] != want[v] {
			t.Errorf("ecc(%d) = %d, want %d", v, ecc[v], want[v])
		}
	}
	if Diameter(g) != 4 {
		t.Errorf("diameter = %d, want 4", Diameter(g))
	}
}

func TestEccentricityDisconnected(t *testing.T) {
	g := mustUnd(t, 3, []graph.Edge{{U: 0, V: 1}})
	if Eccentricity(g, 0) != Unreachable {
		t.Error("ecc must be unreachable on disconnected graph")
	}
	if Diameter(g) != Unreachable {
		t.Error("diameter must be unreachable on disconnected graph")
	}
}

func TestDiameterEmpty(t *testing.T) {
	g, _ := graph.New(0, nil)
	if Diameter(g) != Unreachable {
		t.Error("empty graph diameter should be unreachable")
	}
}

func TestClosenessTriangleWithLoops(t *testing.T) {
	// Triangle with full self loops: hops(i,i)=1, hops(i,j)=1 → ζ = 3.
	g := triangle(t).WithFullSelfLoops()
	for v := int64(0); v < 3; v++ {
		if z := Closeness(g, v); math.Abs(z-3) > 1e-12 {
			t.Errorf("ζ(%d) = %v, want 3", v, z)
		}
	}
}

func TestClosenessPath(t *testing.T) {
	// P3 without loops: from vertex 0, hops = (2, 1, 2) → ζ = 1/2+1+1/2 = 2.
	g := path(t, 3)
	if z := Closeness(g, 0); math.Abs(z-2) > 1e-12 {
		t.Errorf("ζ(0) = %v, want 2", z)
	}
	// Center: hops = (1, 2, 1) → 1 + 1/2 + 1 = 2.5.
	if z := Closeness(g, 1); math.Abs(z-2.5) > 1e-12 {
		t.Errorf("ζ(1) = %v, want 2.5", z)
	}
}

// ---------- triangles ----------

// Oracle test for Def. 5/6: t = ½·diag((A−D)³), Δ = (A−D) ∘ (A−D)².
func TestTrianglesMatchMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		g := randomGraph(rng, 10, true)
		n := int(g.NumVertices())
		adj := matrix.FromGraph(g)
		noDiag := adj.Sub(adj.DiagMatrix())
		cube := noDiag.Pow(3)
		ts := Triangles(g)
		for v := 0; v < n; v++ {
			if ts.Vertex[v] != cube.At(v, v)/2 {
				t.Fatalf("trial %d: t_%d = %d, oracle %d", trial, v, ts.Vertex[v], cube.At(v, v)/2)
			}
		}
		deltaM := noDiag.Hadamard(noDiag.Pow(2))
		idx := int64(-1)
		g.Arcs(func(u, v int64) bool {
			idx++
			if ts.Arc[idx] != deltaM.At(int(u), int(v)) {
				t.Fatalf("trial %d: Δ(%d,%d) = %d, oracle %d",
					trial, u, v, ts.Arc[idx], deltaM.At(int(u), int(v)))
			}
			return true
		})
	}
}

func TestTrianglesKnownGraphs(t *testing.T) {
	// Triangle: every vertex in 1, every edge in 1, global 1.
	ts := Triangles(triangle(t))
	for v, tv := range ts.Vertex {
		if tv != 1 {
			t.Errorf("triangle: t_%d = %d", v, tv)
		}
	}
	if ts.Global != 1 {
		t.Errorf("triangle: τ = %d", ts.Global)
	}
	// K4: t_v = 3, Δ_e = 2, τ = 4.
	k4 := mustUnd(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	ts4 := Triangles(k4)
	if ts4.Global != 4 {
		t.Errorf("K4: τ = %d, want 4", ts4.Global)
	}
	for v, tv := range ts4.Vertex {
		if tv != 3 {
			t.Errorf("K4: t_%d = %d, want 3", v, tv)
		}
	}
	for i, d := range ts4.Arc {
		if d != 2 {
			t.Errorf("K4: Δ arc %d = %d, want 2", i, d)
		}
	}
	// Path has no triangles.
	if GlobalTriangles(path(t, 6)) != 0 {
		t.Error("path must have no triangles")
	}
}

func TestSelfLoopsDoNotCreateTriangles(t *testing.T) {
	g := triangle(t)
	gl := g.WithFullSelfLoops()
	ts, tsl := Triangles(g), Triangles(gl)
	for v := range ts.Vertex {
		if ts.Vertex[v] != tsl.Vertex[v] {
			t.Errorf("loops changed t_%d: %d → %d", v, ts.Vertex[v], tsl.Vertex[v])
		}
	}
	if tsl.Global != ts.Global {
		t.Errorf("loops changed τ: %d → %d", ts.Global, tsl.Global)
	}
}

func TestEdgeTrianglesSingle(t *testing.T) {
	g := triangle(t)
	if EdgeTriangles(g, 0, 1) != 1 {
		t.Error("Δ(0,1) on triangle should be 1")
	}
	if EdgeTriangles(g, 0, 0) != 0 {
		t.Error("loop Δ must be 0")
	}
}

// Property: Σ_v t_v = 3τ and Σ_arcs Δ = 6τ (each triangle on 3 vertices
// and 3 undirected edges = 6 arcs).
func TestPropertyTriangleSums(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 15, true)
		ts := Triangles(g)
		var vs, as int64
		for _, x := range ts.Vertex {
			vs += x
		}
		for _, x := range ts.Arc {
			as += x
		}
		return vs == 3*ts.Global && as == 6*ts.Global
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ---------- clustering ----------

func TestClusteringKnown(t *testing.T) {
	// Triangle: η = 1 everywhere, ξ = 1 on every edge.
	cc := VertexClustering(triangle(t))
	for v, c := range cc {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("triangle η(%d) = %v", v, c)
		}
	}
	ec := EdgeClustering(triangle(t))
	for i, c := range ec {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("triangle ξ arc %d = %v", i, c)
		}
	}
	// Star: center has η = 0; leaves have degree 1 → NaN.
	star := mustUnd(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	sc := VertexClustering(star)
	if sc[0] != 0 {
		t.Errorf("star center η = %v, want 0", sc[0])
	}
	for v := 1; v < 4; v++ {
		if !math.IsNaN(sc[v]) {
			t.Errorf("star leaf η(%d) = %v, want NaN", v, sc[v])
		}
	}
}

func TestClusteringBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 12, false)
		for _, c := range VertexClustering(g) {
			if !math.IsNaN(c) && (c < 0 || c > 1+1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// ---------- communities ----------

func TestCommunityKnown(t *testing.T) {
	// Two triangles joined by one edge.
	g := mustUnd(t, 6, []graph.Edge{
		{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0},
		{U: 3, V: 4}, {U: 4, V: 5}, {U: 5, V: 3},
		{U: 2, V: 3},
	})
	s := Community(g, []int64{0, 1, 2})
	if s.MIn != 3 || s.MOut != 1 {
		t.Errorf("m_in=%d m_out=%d, want 3,1", s.MIn, s.MOut)
	}
	if math.Abs(s.RhoIn-1) > 1e-12 {
		t.Errorf("ρ_in = %v, want 1", s.RhoIn)
	}
	if math.Abs(s.RhoOut-1.0/9) > 1e-12 {
		t.Errorf("ρ_out = %v, want 1/9", s.RhoOut)
	}
}

func TestCommunityIgnoresSelfLoops(t *testing.T) {
	g := mustUnd(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 0}, {U: 2, V: 2}})
	s := Community(g, []int64{0, 1})
	if s.MIn != 1 || s.MOut != 0 {
		t.Errorf("loops leaked into community counts: %+v", s)
	}
}

// Property: Σ_S m_in(S) + ½·Σ_S m_out(S) = m (loop-free edges) for any
// partition.
func TestPropertyCommunityEdgeConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 14, false)
		n := g.NumVertices()
		// Random 3-way partition.
		parts := make([][]int64, 3)
		for v := int64(0); v < n; v++ {
			b := rng.Intn(3)
			parts[b] = append(parts[b], v)
		}
		var mIn, mOut int64
		for _, s := range Communities(g, parts) {
			mIn += s.MIn
			mOut += s.MOut
		}
		return mIn+mOut/2 == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestIsPartition(t *testing.T) {
	g := path(t, 4)
	if !IsPartition(g, [][]int64{{0, 1}, {2, 3}}) {
		t.Error("valid partition rejected")
	}
	if IsPartition(g, [][]int64{{0, 1}, {1, 2, 3}}) {
		t.Error("overlapping partition accepted")
	}
	if IsPartition(g, [][]int64{{0, 1}, {3}}) {
		t.Error("non-covering partition accepted")
	}
	if IsPartition(g, [][]int64{{0, 1, 2, 3, 4}}) {
		t.Error("out-of-range partition accepted")
	}
}

// ---------- histogram ----------

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int64{3, 1, 3, 3, 2})
	if h.Total() != 5 || h.Count(3) != 3 || h.Count(1) != 1 || h.Count(9) != 0 {
		t.Errorf("histogram counts wrong: %v", h.Keys())
	}
	if h.Min() != 1 || h.Max() != 3 {
		t.Errorf("min/max = %d/%d", h.Min(), h.Max())
	}
	keys := h.Keys()
	if len(keys) != 3 || keys[0] != 1 || keys[2] != 3 {
		t.Errorf("keys = %v", keys)
	}
	if !h.Equal(NewHistogram([]int64{1, 2, 3, 3, 3})) {
		t.Error("order must not matter")
	}
	if h.Equal(NewHistogram([]int64{1, 2, 3})) {
		t.Error("different histograms compare equal")
	}
	if h.Render(10) == "" {
		t.Error("Render should produce output")
	}
	if of := HistogramOf(map[int64]int64{1: 1, 2: 1, 3: 3}); !of.Equal(h) || of.Render(10) != h.Render(10) {
		t.Error("HistogramOf a table must be the histogram of its values")
	}
	empty := NewHistogram(nil)
	if empty.Min() != 0 || empty.Max() != 0 || empty.Render(5) != "" {
		t.Error("empty histogram edge cases")
	}
}

// ---------- approximate eccentricity ----------

func TestApproxEccentricitiesLowerBound(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 25, false)
		exact := Eccentricities(g)
		est, sweeps := ApproxEccentricities(g, 4)
		if sweeps < 1 || sweeps > 4 {
			t.Fatalf("sweeps = %d", sweeps)
		}
		for v := range est {
			if exact[v] == Unreachable {
				continue
			}
			if est[v] != Unreachable && est[v] > exact[v] {
				t.Fatalf("trial %d: estimate %d exceeds exact %d at %d",
					trial, est[v], exact[v], v)
			}
		}
	}
}

func TestApproxEccentricitiesExactOnPath(t *testing.T) {
	// On a path, two sweeps from the endpoints give exact eccentricities.
	g := path(t, 9)
	est, _ := ApproxEccentricities(g, 3)
	exact := Eccentricities(g)
	fe, _ := EccentricityFidelity(est, exact)
	if fe != 1 {
		t.Errorf("path fidelity = %v, want exact everywhere (est %v, exact %v)", fe, est, exact)
	}
}

func TestApproxEccentricitiesEdgeCases(t *testing.T) {
	empty, _ := graph.New(0, nil)
	est, sweeps := ApproxEccentricities(empty, 3)
	if len(est) != 0 || sweeps != 0 {
		t.Error("empty graph should do nothing")
	}
	g := path(t, 4)
	est, sweeps = ApproxEccentricities(g, 0)
	if sweeps != 0 || est[0] != Unreachable {
		t.Error("k=0 should do nothing")
	}
}

func TestEccentricityFidelity(t *testing.T) {
	est := []int64{3, 4, 2, Unreachable}
	exact := []int64{3, 5, 4, 7}
	fe, f1 := EccentricityFidelity(est, exact)
	if math.Abs(fe-1.0/3) > 1e-12 || math.Abs(f1-1.0/3) > 1e-12 {
		t.Errorf("fidelity = (%v, %v), want (1/3, 1/3)", fe, f1)
	}
	fe, f1 = EccentricityFidelity(nil, nil)
	if fe != 0 || f1 != 0 {
		t.Error("empty fidelity should be (0,0)")
	}
}

// ---------- bipartiteness ----------

func TestIsBipartite(t *testing.T) {
	if !IsBipartite(path(t, 5)) {
		t.Error("path must be bipartite")
	}
	if IsBipartite(triangle(t)) {
		t.Error("triangle must not be bipartite")
	}
	loop := mustUnd(t, 2, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 1}})
	if IsBipartite(loop) {
		t.Error("self loop must break bipartiteness")
	}
	// Disconnected: bipartite iff every component is.
	two := mustUnd(t, 5, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 3, V: 4}, {U: 4, V: 2}})
	if IsBipartite(two) {
		t.Error("component with triangle must break bipartiteness")
	}
	empty, _ := graph.New(0, nil)
	if !IsBipartite(empty) {
		t.Error("empty graph is vacuously bipartite")
	}
}
