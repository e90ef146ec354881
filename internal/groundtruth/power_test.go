package groundtruth

import (
	"math/rand"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// The Kronecker power A^{⊗k} is the chain of k copies of A: these tests
// hold the Chain* laws, fed one Factor k times, to the materialized
// product of k copies.

// copies returns the factor list of A^{⊗k}.
func copies(a *Factor, k int) []*Factor {
	fs := make([]*Factor, k)
	for i := range fs {
		fs[i] = a
	}
	return fs
}

// A^{⊗k} is the product of the k copies PowerChain lists: A⊗A at k = 2,
// A itself at k = 1, and no power at k = 0.
func TestKronPowerMatchesIteratedProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	a := randomLoopFree(rng, 5)
	for k, want := range map[int]*graph.Graph{1: a, 2: mustProduct(t, a, a)} {
		ch, err := core.PowerChain(a, k)
		if err != nil {
			t.Fatal(err)
		}
		if !mustProduct(t, ch.Factors()...).Equal(want) {
			t.Errorf("A^{⊗%d} differs from the iterated product", k)
		}
	}
	if _, err := core.PowerChain(a, 0); err == nil {
		t.Error("k=0 should error")
	}
}

func TestPowerLawsAgainstMaterializedCube(t *testing.T) {
	rng := rand.New(rand.NewSource(307))
	ga := randomConnectedLoopFree(rng, 5)
	a := NewFactor(ga, Triangles)
	const k = 3
	fs := copies(a, k)
	c := mustProduct(t, ga, ga, ga)
	if n, err := ChainNumVertices(fs); err != nil || n != c.NumVertices() {
		t.Errorf("n law: %d (err %v) != %d", n, err, c.NumVertices())
	}
	if m, err := ChainNumEdges(fs); err != nil || m != c.NumEdges() {
		t.Errorf("m law: %d (err %v) != %d", m, err, c.NumEdges())
	}
	exact := analytics.Triangles(c)
	if got, err := ChainGlobalTriangles(fs); err != nil || got != exact.Global {
		t.Errorf("τ law: %d (err %v) != %d", got, err, exact.Global)
	}
	px := core.MustChainIndex(a.N(), a.N(), a.N()) // k = 3 equal radices
	for p := int64(0); p < c.NumVertices(); p++ {
		coords := px.Split(p)
		if ChainDegreeAt(fs, coords) != c.Degree(p) {
			t.Fatalf("degree law fails at %d", p)
		}
		if got, err := ChainVertexTrianglesAt(fs, coords); err != nil || got != exact.Vertex[p] {
			t.Fatalf("triangle law fails at %d: %d (err %v) != %d", p, got, err, exact.Vertex[p])
		}
	}
}

func TestPowerDistanceLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	ga := randomConnectedLoopFree(rng, 4).WithFullSelfLoops()
	a := NewFactor(ga, Distances)
	const k = 3
	fs := copies(a, k)
	c := mustProduct(t, ga, ga, ga)
	exactEcc := analytics.Eccentricities(c)
	px := core.MustChainIndex(a.N(), a.N(), a.N()) // k = 3 equal radices
	for p := int64(0); p < c.NumVertices(); p++ {
		if got := eccentricityAt(fs, px.Split(p)); got != exactEcc[p] {
			t.Fatalf("ε law fails at %d: %d != %d", p, got, exactEcc[p])
		}
	}
	// Cor. 3 collapses under identical factors: diam(A^{⊗k}) = diam(A).
	if d := diameterOf(fs); d != analytics.Diameter(c) || d != a.Diam {
		t.Errorf("diameter law: %d, materialized %d, diam(A) %d", d, analytics.Diameter(c), a.Diam)
	}
	// Hop law spot checks.
	rows := analytics.AllPairsHops(c)
	for p := int64(0); p < c.NumVertices(); p += 5 {
		for q := int64(0); q < c.NumVertices(); q += 7 {
			if got := hopsRow(fs, px.Split(p))(px.Split(q)); got != rows[p][q] {
				t.Fatalf("hops law fails at (%d,%d): %d != %d", p, q, got, rows[p][q])
			}
		}
	}
}

func TestPowerEccentricityHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	ga := randomConnectedLoopFree(rng, 5).WithFullSelfLoops()
	a := NewFactor(ga, Distances)
	for _, k := range []int{1, 2, 3} {
		ch, err := core.PowerChain(ga, k)
		if err != nil {
			t.Fatal(err)
		}
		c := mustProduct(t, ch.Factors()...)
		want := map[int64]int64{}
		for _, e := range analytics.Eccentricities(c) {
			want[e]++
		}
		got, err := ChainEccentricityHistogram(copies(a, k))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("k=%d: histogram sizes %d != %d", k, len(got), len(want))
		}
		for v, cnt := range want {
			if got[v] != cnt {
				t.Fatalf("k=%d: hist[%d] = %d, want %d", k, v, got[v], cnt)
			}
		}
	}
}
