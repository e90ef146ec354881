package havoq

import (
	"reflect"
	"testing"
	"testing/quick"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// generate runs the distributed generator on the two-factor chain a ⊗ b.
func generate(t *testing.T, a, b *graph.Graph, r int, twoD bool) *dist.Result {
	t.Helper()
	ch, err := core.NewChain(a, b)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dist.GenerateChain(ch, r, nil, twoD)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func mustBuild(t *testing.T, g *graph.Graph, r int) *DistGraph {
	t.Helper()
	dg, err := Build(g, r)
	if err != nil {
		t.Fatal(err)
	}
	return dg
}

func TestBuildValidation(t *testing.T) {
	g := gen.ER(5, 0.5, 1)
	if _, err := Build(g, 0); err == nil {
		t.Error("0 ranks should error")
	}
}

func TestStoreAccessors(t *testing.T) {
	g := gen.Ring(10).WithFullSelfLoops()
	for _, r := range []int{1, 3, 4, 10, 13} {
		dg := mustBuild(t, g, r)
		for v := int64(0); v < 10; v++ {
			if dg.Degree(v) != g.Degree(v) {
				t.Fatalf("R=%d: degree(%d) = %d, want %d", r, v, dg.Degree(v), g.Degree(v))
			}
			if !reflect.DeepEqual(dg.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("R=%d: neighbors(%d) differ", r, v)
			}
			if dg.HasSelfLoop(v) != g.HasSelfLoop(v) {
				t.Fatalf("R=%d: loop flag differs at %d", r, v)
			}
		}
	}
}

func TestBuildFromParts(t *testing.T) {
	a := gen.ER(6, 0.5, 2)
	b := gen.ER(5, 0.5, 3)
	res := generate(t, a, b, 4, false)
	dg, err := BuildFromParts(res.NC, 4, res.PerRank)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for v := int64(0); v < want.NumVertices(); v++ {
		if !reflect.DeepEqual(dg.Neighbors(v), want.Neighbors(v)) {
			t.Fatalf("vertex %d adjacency differs", v)
		}
	}
}

func TestDistributedBFSMatchesSerial(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Ring(17),
		gen.PrefAttach(60, 2, 5),
		gen.ER(40, 0.1, 7), // possibly disconnected
		gen.Star(9).WithFullSelfLoops(),
	}
	for gi, g := range graphs {
		for _, r := range []int{1, 2, 5, 7} {
			dg := mustBuild(t, g, r)
			for src := int64(0); src < g.NumVertices(); src += 7 {
				want := analytics.BFS(g, src)
				got := dg.BFS(src)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("graph %d R=%d src %d: BFS differs", gi, r, src)
				}
			}
		}
	}
}

func TestDistributedHopsMatchesSerial(t *testing.T) {
	g := gen.PrefAttach(40, 2, 9).WithFullSelfLoops()
	dg := mustBuild(t, g, 3)
	for src := int64(0); src < g.NumVertices(); src += 5 {
		if !reflect.DeepEqual(dg.Hops(src), analytics.Hops(g, src)) {
			t.Fatalf("Hops(%d) differs from serial", src)
		}
	}
	// Diagonal conventions on a mixed graph.
	mixed, _ := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 0}, {U: 0, V: 1}})
	dgm := mustBuild(t, mixed, 2)
	for src := int64(0); src < 3; src++ {
		if !reflect.DeepEqual(dgm.Hops(src), analytics.Hops(mixed, src)) {
			t.Fatalf("diagonal convention differs at %d", src)
		}
	}
}

func TestExactEccentricitiesMatchesBruteForce(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Ring(15).WithFullSelfLoops(),
		gen.PrefAttach(50, 2, 11).WithFullSelfLoops(),
		gen.Grid(4, 5).WithFullSelfLoops(),
		gen.Clique(6).WithFullSelfLoops(),
	}
	// At R = 7, Clique(6)+I leaves rank 6 with no vertex.
	for gi, g := range graphs {
		for _, r := range []int{1, 2, 4, 7} {
			dg := mustBuild(t, g, r)
			res, err := dg.ExactEccentricities()
			if err != nil {
				t.Fatalf("graph %d R=%d: %v", gi, r, err)
			}
			want := analytics.Eccentricities(g)
			if !reflect.DeepEqual(res.Ecc, want) {
				t.Fatalf("graph %d R=%d: eccentricities differ\n got %v\nwant %v", gi, r, res.Ecc, want)
			}
			if res.Sweeps <= 0 || res.Sweeps > int(g.NumVertices()) {
				t.Errorf("graph %d R=%d: sweeps = %d out of range", gi, r, res.Sweeps)
			}
		}
	}
}

func TestExactEccentricitiesPrunes(t *testing.T) {
	// On a structured small-world graph the pruning should use far fewer
	// sweeps than n.
	g := gen.PrefAttach(200, 3, 13).WithFullSelfLoops()
	dg := mustBuild(t, g, 2)
	res, err := dg.ExactEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	if res.Sweeps >= 100 {
		t.Errorf("pruning ineffective: %d sweeps for n=200", res.Sweeps)
	}
}

func TestExactEccentricitiesDisconnected(t *testing.T) {
	dis, _ := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	dg := mustBuild(t, dis, 2)
	if _, err := dg.ExactEccentricities(); err == nil {
		t.Error("expected error on disconnected graph")
	}
}

func TestDistributedTrianglesMatchExact(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Clique(7),
		gen.PrefAttach(50, 3, 17),
		gen.ER(40, 0.15, 19),
		gen.Ring(10),
		gen.Clique(5).WithFullSelfLoops(), // loops must not count
	}
	for gi, g := range graphs {
		want := analytics.Triangles(g)
		for _, r := range []int{1, 3, 6, 7} {
			dg := mustBuild(t, g, r)
			got := dg.Triangles()
			if got.Global != want.Global {
				t.Fatalf("graph %d R=%d: τ = %d, want %d", gi, r, got.Global, want.Global)
			}
			if !reflect.DeepEqual(got.Vertex, want.Vertex) {
				t.Fatalf("graph %d R=%d: per-vertex triangle counts differ", gi, r)
			}
			if got.Messages <= 0 {
				t.Errorf("graph %d R=%d: no messages recorded", gi, r)
			}
		}
	}
}

// Property: distributed triangle counting agrees with the exact oracle on
// random graphs across random rank counts.
func TestPropertyTriangles(t *testing.T) {
	f := func(seed int64, rRaw uint8) bool {
		r := int(rRaw%6) + 1
		g := gen.ER(20, 0.25, seed)
		dg, err := Build(g, r)
		if err != nil {
			return false
		}
		return dg.Triangles().Global == analytics.GlobalTriangles(g)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// The paper's Fig. 1 pipeline at miniature scale: generate C = A ⊗ A
// distributedly, load it into the engine, and check the distributed
// eccentricities against Cor. 4's max law.
func TestEndToEndEccentricityPipeline(t *testing.T) {
	a := gen.PrefAttach(12, 2, 23)
	al := a.WithFullSelfLoops()
	res := generate(t, al, al, 3, false)
	dg, err := BuildFromParts(res.NC, 3, res.PerRank)
	if err != nil {
		t.Fatal(err)
	}
	eccRes, err := dg.ExactEccentricities()
	if err != nil {
		t.Fatal(err)
	}
	eccA := analytics.Eccentricities(al)
	n := al.NumVertices()
	for p := int64(0); p < res.NC; p++ {
		i, k := p/n, p%n
		want := eccA[i]
		if eccA[k] > want {
			want = eccA[k]
		}
		if eccRes.Ecc[p] != want {
			t.Fatalf("ε(%d) = %d, Cor.4 predicts %d", p, eccRes.Ecc[p], want)
		}
	}
}
