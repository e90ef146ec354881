package analytics

import (
	"math/rand"
	"testing"

	"kronlab/internal/graph"
)

func benchGraph(b *testing.B, n, m int64, seed int64) *graph.Graph {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	edges := make([]graph.Edge, m)
	for i := range edges {
		edges[i] = graph.Edge{U: rng.Int63n(n), V: rng.Int63n(n)}
	}
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func BenchmarkBFS(b *testing.B) {
	g := benchGraph(b, 20_000, 100_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BFS(g, int64(i)%g.NumVertices())
	}
}

func BenchmarkTrianglesExact(b *testing.B) {
	g := benchGraph(b, 5_000, 50_000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Triangles(g)
	}
}

func BenchmarkVertexClustering(b *testing.B) {
	g := benchGraph(b, 5_000, 50_000, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		VertexClustering(g)
	}
}

func BenchmarkCloseness(b *testing.B) {
	g := benchGraph(b, 20_000, 100_000, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Closeness(g, int64(i)%g.NumVertices())
	}
}

func BenchmarkApproxEccentricities(b *testing.B) {
	g := benchGraph(b, 20_000, 100_000, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ApproxEccentricities(g, 8)
	}
}

func BenchmarkCommunity(b *testing.B) {
	g := benchGraph(b, 20_000, 100_000, 8)
	set := make([]int64, 2_000)
	for i := range set {
		set[i] = int64(i) * 10
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Community(g, set)
	}
}
