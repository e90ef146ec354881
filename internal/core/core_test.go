package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"kronlab/internal/graph"
	"kronlab/internal/matrix"
)

func randomGraph(rng *rand.Rand, maxN int64, loops bool) *graph.Graph {
	n := 1 + rng.Int63n(maxN)
	m := rng.Int63n(2*n + 1)
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

func TestIndexMapsKnown(t *testing.T) {
	ix := NewIndex(4)
	// p = 10, nB = 4 → α = 2, β = 2, γ(2,2) = 10.
	if ix.Alpha(10) != 2 || ix.Beta(10) != 2 {
		t.Fatalf("Alpha/Beta(10) = (%d,%d), want (2,2)", ix.Alpha(10), ix.Beta(10))
	}
	if ix.Gamma(2, 2) != 10 {
		t.Fatalf("Gamma(2,2) = %d, want 10", ix.Gamma(2, 2))
	}
	i, k := ix.Split(7)
	if i != 1 || k != 3 {
		t.Fatalf("Split(7) = (%d,%d), want (1,3)", i, k)
	}
}

// Property: γ(α(p), β(p)) = p for all p ≥ 0 — the composition law of
// Sec. II-A.
func TestPropertyIndexBijection(t *testing.T) {
	f := func(pRaw int64, nRaw uint16) bool {
		n := int64(nRaw%1000) + 1
		p := pRaw
		if p < 0 {
			p = -p
		}
		ix := NewIndex(n)
		return ix.Gamma(ix.Alpha(p), ix.Beta(p)) == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the inverse direction — α(γ(i,k)) = i, β(γ(i,k)) = k for
// 0 ≤ k < n.
func TestPropertyIndexInverse(t *testing.T) {
	f := func(iRaw int64, kRaw, nRaw uint16) bool {
		n := int64(nRaw%1000) + 1
		k := int64(kRaw) % n
		i := iRaw
		if i < 0 {
			i = -i
		}
		i %= 1 << 30
		ix := NewIndex(n)
		p := ix.Gamma(i, k)
		return ix.Alpha(p) == i && ix.Beta(p) == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNewIndexPanicsOnNonPositive(t *testing.T) {
	for _, n := range []int64{0, -3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewIndex(%d): expected panic", n)
				}
			}()
			NewIndex(n)
		}()
	}
}

// Product vs the dense-matrix oracle: pattern(A) ⊗ pattern(B) as a matrix
// equals the adjacency of Product(A, B).
func TestProductMatchesMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 25; trial++ {
		a := randomGraph(rng, 8, true)
		b := randomGraph(rng, 8, true)
		c, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		want := matrix.FromGraph(a).Kron(matrix.FromGraph(b))
		got := matrix.FromGraph(c)
		if !got.Equal(want) {
			t.Fatalf("trial %d: product adjacency mismatch\nA=%v\nB=%v", trial, a, b)
		}
	}
}

func TestProductWithSelfLoopsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 15; trial++ {
		a := randomGraph(rng, 7, false)
		b := randomGraph(rng, 7, false)
		c, err := ProductWithSelfLoops(a, b)
		if err != nil {
			t.Fatal(err)
		}
		ma := matrix.FromGraph(a).Add(matrix.Identity(int(a.NumVertices())))
		mb := matrix.FromGraph(b).Add(matrix.Identity(int(b.NumVertices())))
		if !matrix.FromGraph(c).Equal(ma.Kron(mb)) {
			t.Fatalf("trial %d: (A+I)⊗(B+I) mismatch", trial)
		}
	}
}

func TestProductEdgeCountLaw(t *testing.T) {
	// m_C = 2·m_A·m_B for loop-free undirected factors (Sec. I table).
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		a := randomGraph(rng, 10, false)
		b := randomGraph(rng, 10, false)
		c, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if c.NumEdges() != 2*a.NumEdges()*b.NumEdges() {
			t.Fatalf("trial %d: m_C=%d want %d", trial, c.NumEdges(), 2*a.NumEdges()*b.NumEdges())
		}
		edges, arcs := NumProductEdges(a, b)
		if edges != c.NumEdges() || arcs != c.NumArcs() {
			t.Fatalf("trial %d: NumProductEdges=(%d,%d) want (%d,%d)",
				trial, edges, arcs, c.NumEdges(), c.NumArcs())
		}
	}
}

func TestNumProductEdgesWithLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		a := randomGraph(rng, 8, true)
		b := randomGraph(rng, 8, true)
		c, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		edges, arcs := NumProductEdges(a, b)
		if edges != c.NumEdges() || arcs != c.NumArcs() {
			t.Fatalf("trial %d: predicted (%d,%d), got (%d,%d)",
				trial, edges, arcs, c.NumEdges(), c.NumArcs())
		}
	}
}

func TestProductSymmetryPreserved(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 10; trial++ {
		a := randomGraph(rng, 8, true)
		b := randomGraph(rng, 8, true)
		c, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		if !c.IsSymmetric() {
			t.Fatalf("trial %d: product of symmetric factors must be symmetric", trial)
		}
	}
}

func TestStreamProductEarlyStop(t *testing.T) {
	a := randomGraph(rand.New(rand.NewSource(13)), 6, true)
	b := randomGraph(rand.New(rand.NewSource(14)), 6, true)
	var seen int64
	StreamProduct(a, b, func(u, v int64) bool {
		seen++
		return seen < 5
	})
	if seen != 5 && a.NumArcs()*b.NumArcs() >= 5 {
		t.Errorf("early stop: yielded %d arcs, want 5", seen)
	}
}

func TestStreamProductArcsMatchesStreamProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := randomGraph(rng, 8, true)
	b := randomGraph(rng, 8, true)
	var viaGraph, viaArcs []graph.Edge
	StreamProduct(a, b, func(u, v int64) bool {
		viaGraph = append(viaGraph, graph.Edge{U: u, V: v})
		return true
	})
	StreamProductArcs(a.ArcList(), b, func(u, v int64) bool {
		viaArcs = append(viaArcs, graph.Edge{U: u, V: v})
		return true
	})
	if len(viaGraph) != len(viaArcs) {
		t.Fatalf("lengths differ: %d vs %d", len(viaGraph), len(viaArcs))
	}
	for i := range viaGraph {
		if viaGraph[i] != viaArcs[i] {
			t.Fatalf("arc %d differs: %v vs %v", i, viaGraph[i], viaArcs[i])
		}
	}
}

func TestKronSet(t *testing.T) {
	got := KronSet([]int64{0, 2}, []int64{1}, 3)
	want := []int64{1, 7}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Errorf("KronSet = %v, want %v", got, want)
	}
}

func TestKronPartitionCoversProduct(t *testing.T) {
	pa := [][]int64{{0, 1}, {2}}
	pb := [][]int64{{0}, {1, 2}}
	pc := KronPartition(pa, pb, 3)
	if len(pc) != 4 {
		t.Fatalf("|Π_C| = %d, want 4", len(pc))
	}
	seen := make(map[int64]bool)
	total := 0
	for _, s := range pc {
		for _, v := range s {
			if seen[v] {
				t.Fatalf("vertex %d in two parts", v)
			}
			seen[v] = true
			total++
		}
	}
	if total != 9 {
		t.Errorf("covered %d vertices, want 9", total)
	}
}

// Kronecker product of cliques is Ex. 1's structure check at the core
// level: (K_y + I) ⊗ (K_z + I) = K_{yz} + I.
func TestCliqueProductIsClique(t *testing.T) {
	ky := cliqueWithLoops(3)
	kz := cliqueWithLoops(4)
	c, err := Product(ky, kz)
	if err != nil {
		t.Fatal(err)
	}
	want := cliqueWithLoops(12)
	if !c.Equal(want) {
		t.Error("(K3+I)⊗(K4+I) should be K12+I")
	}
}

func cliqueWithLoops(n int64) *graph.Graph {
	var edges []graph.Edge
	for u := int64(0); u < n; u++ {
		for v := u; v < n; v++ {
			edges = append(edges, graph.Edge{U: u, V: v})
		}
	}
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// Kronecker products are associative: (A⊗B)⊗C = A⊗(B⊗C), which is what
// makes KronPower's left fold canonical.
func TestProductAssociativity(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		a := randomGraph(rng, 5, true)
		b := randomGraph(rng, 5, true)
		c := randomGraph(rng, 5, true)
		ab, err := Product(a, b)
		if err != nil {
			t.Fatal(err)
		}
		left, err := Product(ab, c)
		if err != nil {
			t.Fatal(err)
		}
		bc, err := Product(b, c)
		if err != nil {
			t.Fatal(err)
		}
		right, err := Product(a, bc)
		if err != nil {
			t.Fatal(err)
		}
		if !left.Equal(right) {
			t.Fatalf("trial %d: associativity fails", trial)
		}
	}
}

// The identity graph (I_n as a graph: n self loops) is the unit of ⊗ up
// to the index embedding: A ⊗ I₁ = A = I₁ ⊗ A.
func TestProductIdentity(t *testing.T) {
	one, err := graph.New(1, []graph.Edge{{U: 0, V: 0}})
	if err != nil {
		t.Fatal(err)
	}
	a := randomGraph(rand.New(rand.NewSource(19)), 8, true)
	l, err := Product(a, one)
	if err != nil {
		t.Fatal(err)
	}
	r, err := Product(one, a)
	if err != nil {
		t.Fatal(err)
	}
	if !l.Equal(a) || !r.Equal(a) {
		t.Fatal("I₁ must be the ⊗ unit")
	}
}

func TestStreamProductArcsEarlyStop(t *testing.T) {
	a := randomGraph(rand.New(rand.NewSource(23)), 6, true)
	b := randomGraph(rand.New(rand.NewSource(24)), 6, true)
	if a.NumArcs() == 0 || b.NumArcs() == 0 {
		t.Skip("degenerate sample")
	}
	var seen int
	StreamProductArcs(a.ArcList(), b, func(u, v int64) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("early stop saw %d arcs", seen)
	}
}
