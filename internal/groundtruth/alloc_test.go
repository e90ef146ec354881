package groundtruth

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

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

// chainLaws lists the exported Chain* functions of the package's source.
func chainLaws(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	fset := token.NewFileSet()
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && strings.HasPrefix(fn.Name.Name, "Chain") {
				out = append(out, fn.Name.Name)
			}
		}
	}
	slices.Sort(out)
	return out
}

// TestChainLawsAllocateInFactorSpace runs every exported chain law —
// totals, point values and histograms — on W₁₀₂₄^{⊗4}, n_C = 2⁴⁰, and
// bounds the bytes each allocates by twice the factors' CSR size (each
// allocates under 2 KB today): one that allocates per product
// vertex, 8 TB here, cannot pass. Only ChainEccentricities, which
// materializes ε_C by design, is left out, by name; an exported Chain
// law this table does not run fails the test.
func TestChainLawsAllocateInFactorSpace(t *testing.T) {
	g := wheel(t, 1024)
	gl := g.WithFullSelfLoops()
	fs := copies(NewFactor(g), 4)                  // the loop-free chain ⊗W
	fl := copies(NewFactor(gl).WithDistances(), 4) // ⊗(W+I), with the distance tier
	hub, rim := []int64{0, 0, 0, 0}, []int64{1, 2, 3, 4}
	ok := func(_ any, err error) error { return err }
	laws := map[string]func() error{
		"ChainNumVertices":                func() error { return ok(ChainNumVertices(fs)) },
		"ChainNumArcs":                    func() error { return ok(ChainNumArcs(fl)) },
		"ChainNumEdges":                   func() error { return ok(ChainNumEdges(fl)) },
		"ChainCoordsOf":                   func() error { return ok(ChainCoordsOf(fs, 1<<40-1)) },
		"ChainDegreeAt":                   func() error { ChainDegreeAt(fl, rim); return nil },
		"ChainDegreeHistogram":            func() error { return ok(ChainDegreeHistogram(fl)) },
		"ChainGlobalTriangles":            func() error { return ok(ChainGlobalTriangles(fs)) },
		"ChainVertexTrianglesAt":          func() error { return ok(ChainVertexTrianglesAt(fs, hub)) },
		"ChainVertexTriangleHistogram":    func() error { return ok(ChainVertexTriangleHistogram(fs)) },
		"ChainEdgeTrianglesAt":            func() error { return ok(ChainEdgeTrianglesAt(fs, hub, rim)) },
		"ChainVertexTrianglesFullLoopsAt": func() error { return ok(ChainVertexTrianglesFullLoopsAt(fs, rim)) },
		"ChainGlobalTrianglesFullLoops":   func() error { return ok(ChainGlobalTrianglesFullLoops(fs)) },
		"ChainEdgeTrianglesFullLoopsAt":   func() error { return ok(ChainEdgeTrianglesFullLoopsAt(fs, hub, rim)) },
		"ChainVertexClusteringAt":         func() error { return ok(ChainVertexClusteringAt(fs, rim)) },
		"ChainEdgeClusteringAt":           func() error { return ok(ChainEdgeClusteringAt(fs, hub, rim)) },
		"ChainDiameter":                   func() error { ChainDiameter(fl); return nil },
		"ChainHopsFrom":                   func() error { ChainHopsFrom(fl, hub)(rim); return nil },
		"ChainClosenessAt":                func() error { ChainClosenessAt(fl, rim); return nil },
		"ChainEccentricityAt":             func() error { ChainEccentricityAt(fl, rim); return nil },
		"ChainEccentricityHistogram":      func() error { return ok(ChainEccentricityHistogram(fl)) },
	}
	var covered []string
	for name := range laws {
		covered = append(covered, name)
	}
	covered = append(covered, "ChainEccentricities")
	slices.Sort(covered)
	if all := chainLaws(t); !slices.Equal(all, covered) {
		t.Fatalf("exported chain laws %v, guarded (with ChainEccentricities) %v", all, covered)
	}

	budget := 2 * (csrBytes(g) + csrBytes(gl))
	var before, after runtime.MemStats
	for name, law := range laws {
		runtime.ReadMemStats(&before)
		err := law()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%s allocated %d B on n_C = 2⁴⁰, over %d B (2× the factors' CSR)", name, got, budget)
		}
	}
}
