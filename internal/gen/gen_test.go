package gen

import (
	"math"

	"kronlab/internal/core"
	"kronlab/internal/graph"
	"testing"

	"kronlab/internal/analytics"
)

func TestERBasics(t *testing.T) {
	g := ER(30, 0.3, 1)
	if g.NumVertices() != 30 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if g.NumSelfLoops() != 0 {
		t.Error("ER must be loop-free")
	}
	if !g.IsSymmetric() {
		t.Error("ER must be undirected")
	}
	// Determinism.
	if !g.Equal(ER(30, 0.3, 1)) {
		t.Error("same seed must reproduce the same graph")
	}
	if g.Equal(ER(30, 0.3, 2)) {
		t.Error("different seeds should differ (w.h.p.)")
	}
}

func TestERDensity(t *testing.T) {
	g := ER(100, 0.5, 3)
	m := g.NumEdges()
	expect := int64(100 * 99 / 2 / 2)
	if m < expect*8/10 || m > expect*12/10 {
		t.Errorf("edge count %d far from expectation %d", m, expect)
	}
}

func TestClique(t *testing.T) {
	g := Clique(5)
	if g.NumEdges() != 10 {
		t.Errorf("K5 edges = %d", g.NumEdges())
	}
	if analytics.GlobalTriangles(g) != 10 {
		t.Errorf("K5 triangles = %d, want C(5,3)=10", analytics.GlobalTriangles(g))
	}
}

func TestDisjointCliquesAndPartition(t *testing.T) {
	g := DisjointCliques(3, 4)
	if g.NumVertices() != 12 || g.NumEdges() != 3*6 {
		t.Fatalf("disjoint cliques: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	_, count := g.ConnectedComponents()
	if count != 3 {
		t.Errorf("components = %d, want 3", count)
	}
	for c := int64(0); c < 3; c++ {
		cs := analytics.Community(g, []int64{4 * c, 4*c + 1, 4*c + 2, 4*c + 3})
		if cs.RhoIn != 1 || cs.MOut != 0 {
			t.Errorf("clique community stats wrong: %+v", cs)
		}
	}
}

func TestRingDiameter(t *testing.T) {
	for _, n := range []int64{3, 6, 9, 10} {
		g := Ring(n)
		if g.NumEdges() != n {
			t.Errorf("C%d edges = %d", n, g.NumEdges())
		}
		// Paper hop semantics: hops(i,i) = 2 on loop-free graphs, so the
		// diameter of C3 is 2, not the metric 1; larger rings match ⌊n/2⌋.
		want := n / 2
		if want < 2 {
			want = 2
		}
		if d := analytics.Diameter(g); d != want {
			t.Errorf("C%d diameter = %d, want %d", n, d, want)
		}
	}
}

func TestPathStarGrid(t *testing.T) {
	if d := analytics.Diameter(Path(7)); d != 6 {
		t.Errorf("P7 diameter = %d, want 6", d)
	}
	s := Star(6)
	if s.Degree(0) != 5 || analytics.Diameter(s) != 2 {
		t.Errorf("star: center degree %d diameter %d", s.Degree(0), analytics.Diameter(s))
	}
	g := Grid(3, 4)
	if g.NumVertices() != 12 || g.NumEdges() != 3*3+2*4 {
		t.Errorf("grid: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
	if d := analytics.Diameter(g); d != 5 {
		t.Errorf("3x4 grid diameter = %d, want 5", d)
	}
	// Path and Star are the empty graph at n = 0 and one vertex at n = 1.
	for n := int64(0); n <= 1; n++ {
		for _, g := range []*graph.Graph{Path(n), Star(n)} {
			if g.NumVertices() != n || g.NumArcs() != 0 {
				t.Errorf("n = %d: %v, want %d vertices and no arcs", n, g, n)
			}
		}
	}
}

func TestRMATGraph500(t *testing.T) {
	g := MustRMAT(Graph500Params(8, 42))
	if g.NumVertices() != 256 {
		t.Fatalf("n = %d, want 256", g.NumVertices())
	}
	if g.NumSelfLoops() != 0 {
		t.Error("DropLoops must remove loops")
	}
	if !g.IsSymmetric() {
		t.Error("undirected RMAT must be symmetric")
	}
	// Heavy tail: max degree far above mean.
	mean := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 3*mean {
		t.Errorf("expected skewed degrees: max %d vs mean %.1f", g.MaxDegree(), mean)
	}
	// Determinism.
	if !g.Equal(MustRMAT(Graph500Params(8, 42))) {
		t.Error("RMAT must be deterministic per seed")
	}
}

func TestRMATInvalidParams(t *testing.T) {
	if _, err := RMAT(RMATParams{Scale: -1}); err == nil {
		t.Error("negative scale should error")
	}
	if _, err := RMAT(RMATParams{Scale: 4, A: 0.9, B: 0.9, C: 0.9}); err == nil {
		t.Error("probabilities summing over 1 should error")
	}
	// Each of these once reached the sampler: a negative edge factor
	// panicked in makeslice, an overflowing one wrapped negative, and a NaN
	// passed every x < 0 test and sent every sample to quadrant D.
	if _, err := RMAT(RMATParams{Scale: 4, EdgeFactor: -1, A: 0.57, B: 0.19, C: 0.19}); err == nil {
		t.Error("negative edge factor should error")
	}
	if _, err := RMAT(RMATParams{Scale: 40, EdgeFactor: 1 << 24, A: 0.57, B: 0.19, C: 0.19}); err == nil {
		t.Error("EdgeFactor·2^Scale overflowing int64 should error")
	}
	if _, err := RMAT(RMATParams{Scale: 4, EdgeFactor: 16, A: math.NaN(), B: 0.19, C: 0.19}); err == nil {
		t.Error("NaN probability should error")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("MustRMAT should panic on bad params")
			}
		}()
		MustRMAT(RMATParams{Scale: -1})
	}()
}

func TestSBMStructure(t *testing.T) {
	g, p := SBM(SBMParams{BlockSizes: EqualBlocks(4, 25), PIn: 0.5, POut: 0.02, Seed: 5})
	if g.NumVertices() != 100 || len(p) != 4 {
		t.Fatalf("SBM: n=%d blocks=%d", g.NumVertices(), len(p))
	}
	if !analytics.IsPartition(g, p) {
		t.Fatal("SBM partition invalid")
	}
	for _, s := range analytics.Communities(g, p) {
		if s.RhoIn < 0.3 {
			t.Errorf("block internal density %v too low for PIn=0.5", s.RhoIn)
		}
		if s.RhoOut > 0.1 {
			t.Errorf("block external density %v too high for POut=0.02", s.RhoOut)
		}
	}
}

func TestSBMSparseMatchesDensities(t *testing.T) {
	g, p := SBMSparse(SBMParams{BlockSizes: EqualBlocks(3, 200), PIn: 0.05, POut: 0.002, Seed: 9})
	if g.NumVertices() != 600 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !analytics.IsPartition(g, p) {
		t.Fatal("partition invalid")
	}
	for _, s := range analytics.Communities(g, p) {
		if s.RhoIn < 0.03 || s.RhoIn > 0.07 {
			t.Errorf("sparse SBM ρ_in = %v, want ≈0.05", s.RhoIn)
		}
		if s.RhoOut < 0.0005 || s.RhoOut > 0.005 {
			t.Errorf("sparse SBM ρ_out = %v, want ≈0.002", s.RhoOut)
		}
	}
}

func TestPrefAttachProperties(t *testing.T) {
	g := PrefAttach(500, 3, 11)
	if g.NumVertices() != 500 {
		t.Fatalf("n = %d", g.NumVertices())
	}
	if !g.IsConnected() {
		t.Error("preferential attachment graph must be connected")
	}
	if g.NumSelfLoops() != 0 {
		t.Error("must be loop-free")
	}
	// Heavy tail.
	mean := float64(g.NumArcs()) / float64(g.NumVertices())
	if float64(g.MaxDegree()) < 4*mean {
		t.Errorf("expected hub: max %d vs mean %.1f", g.MaxDegree(), mean)
	}
}

func TestPrefAttachTinyN(t *testing.T) {
	g := PrefAttach(2, 3, 1)
	if g.NumVertices() != 2 || g.NumEdges() != 1 {
		t.Errorf("tiny PA: n=%d m=%d", g.NumVertices(), g.NumEdges())
	}
}

func TestGnutellaLikeMatchesPaperScale(t *testing.T) {
	g := GnutellaLike(2019)
	// Paper: 6.3K vertices, 21K edges after LCC extraction.
	if g.NumVertices() < 6000 || g.NumVertices() > 6301 {
		t.Errorf("gnutella-like n = %d, want ≈6.3K", g.NumVertices())
	}
	if g.NumEdges() < 19000 || g.NumEdges() > 21500 {
		t.Errorf("gnutella-like m = %d, want ≈21K", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("LCC extraction must leave a connected graph")
	}
	if g.NumSelfLoops() != 0 {
		t.Error("loops are added later by the experiment, not the generator")
	}
	// Scale-free-ish: a few high-degree hubs.
	if g.MaxDegree() < 50 {
		t.Errorf("max degree %d too small for a scale-free graph", g.MaxDegree())
	}
	// Small world: diameter of LCC should be modest. Eccentricity of one
	// vertex bounds diameter within factor 2.
	ecc := analytics.Eccentricity(g, 0)
	if ecc <= 0 || ecc > 20 {
		t.Errorf("eccentricity %d suggests wrong structure", ecc)
	}
}

// Regression test: PrefAttach once leaked Go's randomized map iteration
// order into its degree-proportional sampling, making "seeded" graphs
// differ across process runs. Equality across rebuilds within one process
// can't catch that, but identical edge ORDER can: the map-order bug
// shuffled construction order first.
func TestPrefAttachDeterministicConstruction(t *testing.T) {
	a := PrefAttach(300, 3, 99)
	b := PrefAttach(300, 3, 99)
	if !a.Equal(b) {
		t.Fatal("PrefAttach not deterministic for a fixed seed")
	}
	ea, eb := a.EdgeList(), b.EdgeList()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge order diverges at %d: %v vs %v", i, ea[i], eb[i])
		}
	}
	if GnutellaLike(7).NumEdges() != GnutellaLike(7).NumEdges() {
		t.Fatal("GnutellaLike not deterministic")
	}
}

func TestSKGDegeneratesToNonstochasticPower(t *testing.T) {
	// A 0/1 initiator makes SKG deterministic: it must equal the
	// nonstochastic Kronecker power of the initiator's graph — the bridge
	// between the two generator families the paper contrasts.
	init := [][]float64{
		{1, 1, 0},
		{1, 0, 1},
		{0, 1, 1},
	}
	skg, err := SKG(SKGParams{Initiator: init, S: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := graph.New(3, []graph.Edge{
		{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 1, V: 2}, {U: 2, V: 1}, {U: 2, V: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(base, base, base)
	if err != nil {
		t.Fatal(err)
	}
	if !skg.Equal(want) {
		t.Fatal("0/1 SKG must equal the nonstochastic Kronecker power")
	}
}

func TestSKGExpectedEdgeCount(t *testing.T) {
	// Uniform initiator p: every directed pair appears with prob p^S.
	init := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	const s = 6 // n = 64, pair prob = 1/64
	var total int64
	const reps = 20
	for seed := int64(0); seed < reps; seed++ {
		g, err := SKG(SKGParams{Initiator: init, S: s, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		total += g.NumArcs()
	}
	mean := float64(total) / reps
	want := 64.0 * 64.0 / 64.0 // n² · p^S = 64
	if mean < want*0.8 || mean > want*1.2 {
		t.Errorf("mean arcs %v, want ≈%v", mean, want)
	}
}

func TestSKGValidation(t *testing.T) {
	if _, err := SKG(SKGParams{}); err == nil {
		t.Error("empty initiator should error")
	}
	if _, err := SKG(SKGParams{Initiator: [][]float64{{0.5, 0.5}}, S: 2}); err == nil {
		t.Error("ragged initiator should error")
	}
	if _, err := SKG(SKGParams{Initiator: [][]float64{{1.5}}, S: 2}); err == nil {
		t.Error("out-of-range probability should error")
	}
	if _, err := SKG(SKGParams{Initiator: [][]float64{{0.5}}, S: 0}); err == nil {
		t.Error("S=0 should error")
	}
	asym := [][]float64{{0.5, 0.1}, {0.9, 0.5}}
	if _, err := SKG(SKGParams{Initiator: asym, S: 2, Undirected: true}); err == nil {
		t.Error("asymmetric initiator with Undirected should error")
	}
	big := [][]float64{{0.5, 0.5}, {0.5, 0.5}}
	if _, err := SKG(SKGParams{Initiator: big, S: 40}); err == nil {
		t.Error("oversized power should error")
	}
}

func TestSKGUndirectedSymmetric(t *testing.T) {
	init := [][]float64{{0.9, 0.4}, {0.4, 0.2}}
	g, err := SKG(SKGParams{Initiator: init, S: 5, Seed: 7, Undirected: true, DropLoops: true})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSymmetric() || g.NumSelfLoops() != 0 {
		t.Error("undirected loop-free SKG violated its contract")
	}
}
