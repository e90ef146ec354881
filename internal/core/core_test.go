package core

import (
	"math/rand"
	"testing"

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

// Product vs the dense-matrix oracle: pattern(A₁) ⊗ … ⊗ pattern(Aₖ) as a
// matrix equals the adjacency of Product(A₁, …, Aₖ) — for two factors
// with loops, for the +I factors of loop-free ones ((A+I)⊗(B+I), the
// product of Cor. 1, Cor. 2 and Thm. 6), and for three factors.
func TestProductMatchesMatrixOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	check := func(trial int, want *matrix.Dense, fs ...*graph.Graph) {
		t.Helper()
		c, err := Product(fs...)
		if err != nil {
			t.Fatal(err)
		}
		if !matrix.FromGraph(c).Equal(want) {
			t.Fatalf("trial %d: product adjacency mismatch over %v", trial, fs)
		}
	}
	m := matrix.FromGraph
	plusI := func(g *graph.Graph) *matrix.Dense { return m(g).Add(matrix.Identity(int(g.NumVertices()))) }
	for trial := 0; trial < 25; trial++ {
		a, b := randomGraph(rng, 8, true), randomGraph(rng, 8, true)
		check(trial, m(a).Kron(m(b)), a, b)
	}
	for trial := 0; trial < 15; trial++ {
		a, b := randomGraph(rng, 7, false), randomGraph(rng, 7, false)
		check(trial, plusI(a).Kron(plusI(b)), a.WithFullSelfLoops(), b.WithFullSelfLoops())
	}
	for trial := 0; trial < 10; trial++ {
		a, b, c := randomGraph(rng, 5, true), randomGraph(rng, 4, false), randomGraph(rng, 5, true)
		check(trial, m(a).Kron(m(b)).Kron(m(c)), a, b, c)
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
		edges, arcs, err := chainOf(t, a, b).NumEdges()
		if err != nil {
			t.Fatal(err)
		}
		if edges != c.NumEdges() || arcs != c.NumArcs() {
			t.Fatalf("trial %d: Chain.NumEdges=(%d,%d) want (%d,%d)",
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
		edges, arcs, err := chainOf(t, a, b).NumEdges()
		if err != nil {
			t.Fatal(err)
		}
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
	pc := KronPartition([][][]int64{pa, pb}, []int64{3, 3})
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
// makes Product's left fold canonical.
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
