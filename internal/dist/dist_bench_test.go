package dist

import (
	"context"
	"fmt"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// Owner-map ablation (DESIGN.md design choice): routing policy determines
// per-rank storage balance. These benches report the load-imbalance ratio
// (max/ideal) as a custom metric alongside time.
func BenchmarkOwnerMapAblation(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 1))
	bb := gen.MustRMAT(gen.Graph500Params(5, 2))
	nC := a.NumVertices() * bb.NumVertices()
	owners := []struct {
		name string
		f    OwnerFunc
	}{
		{"bySource", OwnerBySource},
		{"byEdge", OwnerByEdge},
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

// Owner-side (communication-free CSR) generation vs routed generation at
// the same block storage map — the Sec. III optimization ablation: owned is
// BlockOwner{NC}, a source owner the engine generates in place for
// (GenerateOwned); routedBlock is the OwnerByBlock(nC) closure, the same map
// as an opaque function, which it can only ask edge by edge and route.
func BenchmarkOwnedVsRouted(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 3))
	bb := gen.MustRMAT(gen.Graph500Params(5, 4))
	nC := a.NumVertices() * bb.NumVertices()
	b.Run("routedBlock", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GenerateChain(mustChain(a, bb), 8, OwnerByBlock(nC), false); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("owned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := GenerateOwned(a, bb, 8); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// Batch-size sweep of the routed kernel at a fixed rank count — the
// measurement behind DefaultBatchSize (README §Performance): too small
// pays per-message overhead, too large blows the staging working set.
// Routed by edge: a source owner has no batches to size.
func BenchmarkKernelBatchSize(b *testing.B) {
	a := gen.MustRMAT(gen.Graph500Params(5, 10))
	bb := gen.MustRMAT(gen.Graph500Params(5, 11))
	edges := a.NumArcs() * bb.NumArcs()
	for _, batch := range []int{64, 256, 1024, 4096} {
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
				cfg := Config{Plan: plan, Owner: OwnerByEdge, Sink: sink, BatchSize: batch}
				if _, err := Run(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Raw exchange throughput of the simulated transport, by cluster size:
// every rank sends `per` edges round-robin and drains its inbox.
func BenchmarkExchangeThroughput(b *testing.B) {
	for _, r := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			const per = 20_000
			b.SetBytes(int64(r) * per * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c, err := NewCluster(r)
				if err != nil {
					b.Fatal(err)
				}
				err = c.Run(func(rk *Rank) error {
					var got int
					return rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
						for j := 0; j < per; j++ {
							emit(j%r, graph.Edge{U: int64(j), V: int64(rk.ID())})
						}
					}, func(e graph.Edge) {
						got++
					})
				})
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
