package dist

import (
	"context"
	"fmt"
	"testing"

	"kronlab/internal/gen"
)

// Owner-map ablation (DESIGN.md design choice): the owner map determines
// per-rank storage balance. These benches report the load-imbalance ratio
// (max/ideal) as a custom metric alongside time.
func BenchmarkOwnerMapAblation(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 1))
	bb := gen.MustRMAT(gen.Graph500Params(5, 2))
	nC := a.NumVertices() * bb.NumVertices()
	owners := []struct {
		name string
		f    Owner
	}{
		{"bySource", OwnerBySource},
		{"byBlock", OwnerByBlock(nC)},
	}
	for _, o := range owners {
		b.Run(o.name, func(b *testing.B) {
			var imbalance float64
			for i := 0; i < b.N; i++ {
				res, err := GenerateChain(mustChain(a, bb), 8, o.f, false)
				if err != nil {
					b.Fatal(err)
				}
				ideal := float64(res.TotalStored()) / 8
				imbalance = float64(res.MaxRankStorage()) / ideal
			}
			b.ReportMetric(imbalance, "max/ideal")
		})
	}
}

// Batch-size sweep of the engine at a fixed rank count under the source
// owner — the measurement behind DefaultBatchSize (README §Performance):
// too small pays the per-block path more often, too large pushes the block
// out of L1.
func BenchmarkKernelBatchSize(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 10))
	bb := gen.MustRMAT(gen.Graph500Params(5, 11))
	edges := a.NumArcs() * bb.NumArcs()
	for _, batch := range []int{64, 256, 1024, 2048, 4096} {
		b.Run(fmt.Sprintf("B=%d", batch), func(b *testing.B) {
			plan, err := PlanChain1D(mustChain(a, bb), 16)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(edges * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink := NewMemorySink(16)
				sink.Hint = edges/16 + 1
				cfg := Config{Plan: plan, Owner: OwnerBySource, Sink: sink, BatchSize: batch}
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
