package store

import (
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
)

// Streaming a product to disk: edges/second through the shard writers,
// routed by BySource in blocks.
func BenchmarkStreamToStore(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 1))
	bb := gen.MustRMAT(gen.Graph500Params(5, 2))
	n := a.NumVertices() * bb.NumVertices()
	b.SetBytes(a.NumArcs() * bb.NumArcs() * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writeStore(b, b.TempDir(), n, 4, nil, func(yield func(u, v int64) bool) {
			core.StreamProduct(a, bb, yield)
		})
	}
}

func BenchmarkStoreIter(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 3))
	st := writeStore(b, b.TempDir(), a.NumVertices(), 4, nil, a.Arcs)
	b.SetBytes(st.TotalEdges() * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		if err := st.Iter(func(u, v int64) bool {
			count++
			return true
		}); err != nil {
			b.Fatal(err)
		}
	}
}
