package spectral

import (
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// Implicit Kronecker matvec vs a direct multiply on the materialized
// product — the structural advantage the paper's Sec. IV-C warns about.
func BenchmarkKronMatVecImplicit(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(6, 1))
	bb := gen.MustRMAT(gen.Graph500Params(6, 2))
	x := make([]float64, a.NumVertices()*bb.NumVertices())
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := KronMatVec([]*graph.Graph{a, bb}, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKronMatVecMaterialized(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(6, 1))
	bb := gen.MustRMAT(gen.Graph500Params(6, 2))
	c, err := core.Product(a, bb)
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, c.NumVertices())
	for i := range x {
		x[i] = float64(i%13) - 6
	}
	y := make([]float64, len(x))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range y {
			y[j] = 0
		}
		c.Arcs(func(u, v int64) bool {
			y[u] += x[v]
			return true
		})
	}
}

func BenchmarkAdjacencyEig(b *testing.B) {
	g := gen.ER(64, 0.3, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := AdjacencyEig(g); err != nil {
			b.Fatal(err)
		}
	}
}
