package spectral

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func approx(x, y, tol float64) bool { return math.Abs(x-y) <= tol }

func TestSymEigKnown(t *testing.T) {
	// [[2,1],[1,2]] has eigenvalues 1 and 3.
	eig, err := SymEig([][]float64{{2, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(eig[0], 1, 1e-9) || !approx(eig[1], 3, 1e-9) {
		t.Errorf("eig = %v, want [1 3]", eig)
	}
	// Identity.
	eig, err = SymEig([][]float64{{1, 0, 0}, {0, 1, 0}, {0, 0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range eig {
		if !approx(l, 1, 1e-12) {
			t.Errorf("identity eigenvalue %v", l)
		}
	}
}

func TestSymEigPathGraph(t *testing.T) {
	// P3 adjacency eigenvalues: -√2, 0, √2.
	eig, err := AdjacencyEig(gen.Path(3))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{-math.Sqrt2, 0, math.Sqrt2}
	for i := range want {
		if !approx(eig[i], want[i], 1e-9) {
			t.Errorf("P3 eig[%d] = %v, want %v", i, eig[i], want[i])
		}
	}
}

func TestSymEigCompleteGraph(t *testing.T) {
	// K_n: eigenvalues n−1 (once) and −1 (n−1 times).
	eig, err := AdjacencyEig(gen.Clique(5))
	if err != nil {
		t.Fatal(err)
	}
	if !approx(eig[4], 4, 1e-9) {
		t.Errorf("K5 λmax = %v, want 4", eig[4])
	}
	for i := 0; i < 4; i++ {
		if !approx(eig[i], -1, 1e-9) {
			t.Errorf("K5 eig[%d] = %v, want -1", i, eig[i])
		}
	}
}

func TestSymEigValidation(t *testing.T) {
	if _, err := SymEig([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged input should error")
	}
	if _, err := SymEig([][]float64{{1, 2}, {3, 1}}); err == nil {
		t.Error("asymmetric input should error")
	}
	dir, _ := graph.New(2, []graph.Edge{{U: 0, V: 1}})
	if _, err := AdjacencyEig(dir); err == nil {
		t.Error("directed graph should error")
	}
}

func TestSymEigTraceAndFrobeniusInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 10; trial++ {
		g := gen.ER(12, 0.4, int64(trial))
		eig, err := AdjacencyEig(g)
		if err != nil {
			t.Fatal(err)
		}
		// Σλ = trace(A) = 0 (loop-free); Σλ² = arcs.
		var sum, sq float64
		for _, l := range eig {
			sum += l
			sq += l * l
		}
		if !approx(sum, 0, 1e-7) {
			t.Errorf("trial %d: Σλ = %v", trial, sum)
		}
		if !approx(sq, float64(g.NumArcs()), 1e-6) {
			t.Errorf("trial %d: Σλ² = %v, arcs %d", trial, sq, g.NumArcs())
		}
		_ = rng
	}
}

// The headline law: spec(A⊗B) = {λμ}, checked against a direct eigensolve
// of the materialized product.
func TestKroneckerEigenvalueLaw(t *testing.T) {
	a := gen.ER(6, 0.5, 3)
	b := gen.ER(5, 0.5, 4)
	eigA, err := AdjacencyEig(a)
	if err != nil {
		t.Fatal(err)
	}
	eigB, err := AdjacencyEig(b)
	if err != nil {
		t.Fatal(err)
	}
	pred := KronEigenvalues(eigA, eigB)
	c, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := AdjacencyEig(c)
	if err != nil {
		t.Fatal(err)
	}
	sort.Float64s(got)
	if len(got) != len(pred) {
		t.Fatalf("spectrum sizes %d vs %d", len(got), len(pred))
	}
	for i := range got {
		if !approx(got[i], pred[i], 1e-6) {
			t.Fatalf("eig[%d]: product %v, law %v", i, got[i], pred[i])
		}
	}
}

// Spectral triangle counting: τ = Σλ³/6 matches exact counting, and via
// the Kronecker law this gives product triangle counts from factor
// spectra alone.
func TestSpectralTriangles(t *testing.T) {
	a := gen.ER(10, 0.5, 7)
	eigA, err := AdjacencyEig(a)
	if err != nil {
		t.Fatal(err)
	}
	wantA := triangleCount(a)
	if got := SpectralTriangles(eigA); !approx(got, float64(wantA), 1e-5) {
		t.Errorf("spectral τ_A = %v, exact %d", got, wantA)
	}
	b := gen.ER(8, 0.5, 8)
	eigB, err := AdjacencyEig(b)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	wantC := triangleCount(c)
	if got := SpectralTriangles(KronEigenvalues(eigA, eigB)); !approx(got, float64(wantC), 1e-4) {
		t.Errorf("spectral τ_C = %v, exact %d", got, wantC)
	}
}

// triangleCount is a local brute-force triangle counter (avoids importing
// analytics, keeping the package dependency-light).
func triangleCount(g *graph.Graph) int64 {
	var count int64
	n := g.NumVertices()
	for u := int64(0); u < n; u++ {
		for _, v := range g.Neighbors(u) {
			if v <= u {
				continue
			}
			for _, w := range g.Neighbors(v) {
				if w <= v {
					continue
				}
				if g.HasArc(u, w) {
					count++
				}
			}
		}
	}
	return count
}

func TestKronMatVecMatchesMaterializedProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := gen.ER(7, 0.5, 5)
	b := gen.ER(6, 0.5, 6)
	c, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	n := c.NumVertices()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	got, err := KronMatVec([]*graph.Graph{a, b}, x)
	if err != nil {
		t.Fatal(err)
	}
	// Direct multiply on the materialized product.
	want := make([]float64, n)
	c.Arcs(func(u, v int64) bool {
		want[u] += x[v]
		return true
	})
	for i := range want {
		if !approx(got[i], want[i], 1e-9) {
			t.Fatalf("y[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if _, err := KronMatVec([]*graph.Graph{a, b}, x[:3]); err == nil {
		t.Error("wrong-length x should error")
	}
}

func TestPowerIterationMatchesEigMaxProduct(t *testing.T) {
	a := gen.Clique(4) // λmax = 3
	b := gen.Clique(3) // λmax = 2
	lam, err := PowerIteration([]*graph.Graph{a, b}, 60)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lam, 6, 1e-6) {
		t.Errorf("λmax(K4⊗K3) = %v, want 6", lam)
	}
	// And on irregular factors: λmax(C) = λmax(A)·λmax(B).
	ga := gen.PrefAttach(12, 2, 9)
	gb := gen.ER(9, 0.5, 10)
	eigA, _ := AdjacencyEig(ga)
	eigB, _ := AdjacencyEig(gb)
	want := eigA[len(eigA)-1] * eigB[len(eigB)-1]
	lam, err = PowerIteration([]*graph.Graph{ga, gb}, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !approx(lam, want, 1e-4*math.Max(1, want)) {
		t.Errorf("power iteration %v, factor-spectra law %v", lam, want)
	}
}

func TestPowerIterationEdgeCases(t *testing.T) {
	empty, _ := graph.New(0, nil)
	if _, err := PowerIteration([]*graph.Graph{empty, empty}, 5); err == nil {
		t.Error("empty product should error")
	}
	// Edgeless graphs: dominant eigenvalue 0.
	bare, _ := graph.New(3, nil)
	lam, err := PowerIteration([]*graph.Graph{bare, bare}, 5)
	if err != nil || lam != 0 {
		t.Errorf("edgeless: λ = %v, err %v", lam, err)
	}
}

// PowerIteration's allocations do not grow with iters: its steps run
// over buffers it allocates once.
func TestPowerIterationAllocationsIndependentOfIters(t *testing.T) {
	factors := []*graph.Graph{gen.Ring(7), gen.Clique(5), gen.Path(4)}
	allocs := func(iters int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := PowerIteration(factors, iters); err != nil {
				t.Fatal(err)
			}
		})
	}
	if few, many := allocs(2), allocs(60); many != few {
		t.Errorf("PowerIteration made %v allocations at 60 steps, %v at 2", many, few)
	}
}

// The chain forms at k = 3, on three different factors (5·6·7 = 210
// product vertices), against the materialized chain: the spectrum as a
// multiset, the implicit matvec on a random vector, and power
// iteration's λmax.
func TestKronChainSpectralForms(t *testing.T) {
	factors := []*graph.Graph{gen.Clique(5), gen.PrefAttach(6, 2, 12), gen.Ring(7)}
	c, err := core.Product(factors...)
	if err != nil {
		t.Fatal(err)
	}
	spectra := make([][]float64, len(factors))
	for d, g := range factors {
		if spectra[d], err = AdjacencyEig(g); err != nil {
			t.Fatal(err)
		}
	}
	pred := KronEigenvalues(spectra...)
	got, err := AdjacencyEig(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(pred) != len(got) {
		t.Fatalf("spectrum sizes: law %d, product %d", len(pred), len(got))
	}
	for i := range got {
		if !approx(got[i], pred[i], 1e-9) {
			t.Fatalf("eig[%d]: product %v, law %v", i, got[i], pred[i])
		}
	}

	rng := rand.New(rand.NewSource(13))
	x := make([]float64, c.NumVertices())
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y, err := KronMatVec(factors, x)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float64, len(x))
	c.Arcs(func(u, v int64) bool {
		want[u] += x[v]
		return true
	})
	for i := range want {
		if !approx(y[i], want[i], 1e-9) {
			t.Fatalf("y[%d] = %v, want %v", i, y[i], want[i])
		}
	}

	lam, err := PowerIteration(factors, 300)
	if err != nil {
		t.Fatal(err)
	}
	if lmax := got[len(got)-1]; !approx(lam, lmax, 1e-6*lmax) {
		t.Errorf("power iteration λmax %v, product spectrum %v", lam, lmax)
	}
}
