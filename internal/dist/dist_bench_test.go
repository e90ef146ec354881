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

// BenchmarkPaperScale is the paper's headline shape in-package: RMAT(18)²,
// a Graph500 scale-18 factor crossed with itself — 2³⁶ vertices, its
// innermost factor ≈ 8 M arcs, past L2 — planned on R = 2 ranks with no
// owner into a CountSink, each rank's tile cut by Take to 5e7 arcs so one
// run expands 1e8 in a fraction of a second. It reports ns/arc, the wall
// of one Run over the arcs it expands; building the factor and its cached
// layouts (one untimed Run) is outside the timer.
func BenchmarkPaperScale(b *testing.B) {
	const r, take = 2, 50_000_000
	g := gen.MustRMAT(gen.Graph500Params(18, 1))
	plan, err := PlanChain1D(mustChain(g, g), r)
	if err != nil {
		b.Fatal(err)
	}
	for _, tiles := range plan.Tiles {
		tiles[0].Take = take
	}
	run := func() {
		sink := &CountSink{}
		if _, err := Run(context.Background(), Config{Plan: plan, Sink: sink}); err != nil || sink.Total() != r*take {
			b.Fatalf("%d arcs, err %v; want %d", sink.Total(), err, r*take)
		}
	}
	run()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run()
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*r*take), "ns/arc")
}
