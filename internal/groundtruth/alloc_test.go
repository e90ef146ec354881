package groundtruth

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"kronlab/internal/analytics"
	"kronlab/internal/graph"
)

// wheel returns W_n: a hub joined to every vertex of an (n−1)-ring. Its
// degrees, vertex triangle counts and (with loops) eccentricities take
// two values each, so every law's histogram over a chain of wheels has
// few keys however large n_C grows.
func wheel(t *testing.T, n int64) *graph.Graph {
	t.Helper()
	var edges []graph.Edge
	for v := int64(1); v < n; v++ {
		edges = append(edges, graph.Edge{U: 0, V: v}, graph.Edge{U: v, V: 1 + v%(n-1)})
	}
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// csrBytes is the size of a factor graph's CSR arrays: row offsets and
// adjacency, 8 B an entry.
func csrBytes(g *graph.Graph) uint64 { return uint64(g.NumVertices()+1+g.NumArcs()) * 8 }

// allocBytes returns the fewest heap bytes allocated over three runs of
// f. MemStats.TotalAlloc counts every goroutine of the test binary, the
// runtime's finalizer and cleanup goroutines among them, so one run can
// read a few hundred bytes that are not f's. Every run holds all of f's
// own allocations, so the fewest still bounds them from above.
func allocBytes(f func()) uint64 {
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		best = min(best, after.TotalAlloc-before.TotalAlloc)
	}
	return best
}

// TestChainLawsAllocateInFactorSpace evaluates every row of the law table
// — totals, point values and histograms — on W₁₀₂₄^{⊗4}, n_C = 2⁴⁰, and
// bounds the bytes each allocates by twice the factors' CSR size (each
// allocates under 2 KB today): one that allocates per product vertex,
// 8 TB here, cannot pass. ChainEccentricities, which materializes ε_C by
// design, has no row.
func TestChainLawsAllocateInFactorSpace(t *testing.T) {
	g := wheel(t, 1024)
	gl := g.WithFullSelfLoops()
	fs := copies(NewFactor(g, Triangles), 4)  // the loop-free chain ⊗W
	fl := copies(NewFactor(gl, Distances), 4) // ⊗(W+I), with the distance tier
	hub, rim := []int64{0, 0, 0, 0}, []int64{1, 2, 3, 4}
	budget := 2 * (csrBytes(g) + csrBytes(gl))
	for _, law := range Laws {
		chain := fs
		if law.Takes == FullLoops {
			chain = fl
		}
		p, q := rim, []int64(nil)
		if law.Shape == PerArc || law.Shape == PerPair {
			p, q = hub, rim
		}
		var err error
		got := allocBytes(func() { _, err = law.Eval(chain, p, q) })
		if err != nil {
			t.Errorf("%s: %v", law.Name, err)
		}
		if got > budget {
			t.Errorf("%s allocated %d B on n_C = 2⁴⁰, over %d B (2× the factors' CSR)", law.Name, got, budget)
		}
	}
}

// TestCommunitiesKronAllocatesItsResults folds Thm. 6 over W₁₀₂₄^{⊗4},
// n_C = 2⁴⁰, with four communities a factor, and bounds its bytes by its
// 4⁴ results plus 1 KB: the fold reads factor statistics only.
func TestCommunitiesKronAllocatesItsResults(t *testing.T) {
	g := wheel(t, 1024)
	parts := make([][]int64, 4)
	for v := int64(0); v < g.NumVertices(); v++ {
		parts[v%4] = append(parts[v%4], v)
	}
	stats := analytics.Communities(g, parts)
	gs := []*graph.Graph{g, g, g, g}
	ss := [][]analytics.CommunityStats{stats, stats, stats, stats}
	var out []analytics.CommunityStats
	var err error
	got := allocBytes(func() { out, err = CommunitiesKron(gs, ss) })
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 256 {
		t.Fatalf("%d communities, want 4⁴", len(out))
	}
	budget := uint64(len(out))*uint64(unsafe.Sizeof(out[0])) + 1024
	if got > budget {
		t.Errorf("CommunitiesKron allocated %d B on n_C = 2⁴⁰, over %d B (its results and 1 KB)", got, budget)
	}
}
