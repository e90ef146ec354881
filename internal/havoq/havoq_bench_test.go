package havoq

import (
	"fmt"
	"testing"

	"kronlab/internal/gen"
)

func BenchmarkDistributedBFS(b *testing.B) {
	g := gen.PrefAttach(20_000, 3, 1)
	for _, r := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			dg, err := Build(g, r)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				dg.BFS(int64(i) % g.NumVertices())
			}
		})
	}
}

func BenchmarkDistributedTriangles(b *testing.B) {
	g := gen.PrefAttach(2_000, 3, 2)
	dg, err := Build(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg.Triangles()
	}
}

func BenchmarkExactEccentricities(b *testing.B) {
	g := gen.PrefAttach(600, 3, 3).WithFullSelfLoops()
	dg, err := Build(g, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dg.ExactEccentricities(); err != nil {
			b.Fatal(err)
		}
	}
}
