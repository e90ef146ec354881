package dist

import (
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// BenchmarkRoute measures the Route stage where it lives: one shipper
// partitioning pre-expanded RMAT(7)² blocks (the engine's k = 2 blocks:
// one head arc against ≤ DefaultBatchSize tail arcs) across R = 4
// destinations, every flushed batch handed back through a loopback
// transport to a discarding handler — so the time is scan, owner call,
// copy, flush and buffer recycling, with no expansion, no sink and no
// second goroutine. Rows: bySource and blockBound take the run router
// (OwnerBySource as callers pass it, and BlockOwner); byEdge takes the
// per-edge loop; perEdgeReference is stage, one call per edge, with the
// source hash — what a fault-armed run pays, and the per-edge cost the
// run router is measured against. CI (make bench-route) holds bySource
// to ≤ perEdgeReference in ns/edge, a same-process ratio, and every row
// to 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	const r = 4
	a, bb := gen.MustRMAT(gen.Graph500Params(7, 21)), gen.MustRMAT(gen.Graph500Params(7, 22))
	blocks := expandBlocks(a, bb, DefaultBatchSize, 1)
	var edges int64
	for _, tb := range blocks {
		edges += int64(len(tb.block))
	}
	hash := resolveOwner(OwnerBySource).(SourceOwner)
	hashRuns, hashEdge := hash.BindSource(r), hash.Bind(r)
	blockRuns := BlockOwner{NC: a.NumVertices() * bb.NumVertices()}.BindSource(r)
	edgeHash := OwnerByEdge.Bind(r)
	rows := []struct {
		name  string
		route func(s *shipper, block []graph.Edge) bool
	}{
		{"bySource", func(s *shipper, block []graph.Edge) bool { return s.routeRuns(0, block, hashRuns) }},
		{"blockBound", func(s *shipper, block []graph.Edge) bool { return s.routeRuns(0, block, blockRuns) }},
		{"byEdge", func(s *shipper, block []graph.Edge) bool { return s.route(0, block, edgeHash) }},
		{"perEdgeReference", func(s *shipper, block []graph.Edge) bool {
			for _, e := range block {
				if !s.stage(hashEdge(e.U, e.V), 0, e) {
					return false
				}
			}
			return true
		}},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			rk, _ := loopbackRank(b, r)
			s := newShipper(rk, DefaultBatchSize, func(int, []graph.Edge) {})
			pass := func() {
				for _, tb := range blocks {
					if !row.route(s, tb.block) {
						b.Fatal("router refused a block")
					}
				}
			}
			pass() // check out the staging buffers and fill the spare stack
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pass()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*edges), "ns/edge")
		})
	}
}

// BenchmarkOwnerByBlock measures one owner-map evaluation per iteration
// for the two forms of the block owner: the recompute-per-call OwnerFunc
// and the plan-time-bound BlockOwner. It is what the per-edge router
// pays per edge for an opaque OwnerByBlock(nC) closure, and what the run
// router pays once per run of equal sources for BlockOwner — routed runs
// should pass the latter (BenchmarkRoute measures the routers
// themselves).
func BenchmarkOwnerByBlock(b *testing.B) {
	const nC = int64(1) << 40
	const r = 16
	b.Run("unbound", func(b *testing.B) {
		f := OwnerByBlock(nC)
		var acc int
		for i := 0; i < b.N; i++ {
			acc += f(int64(i)&(nC-1), 0, r)
		}
		sinkOwner = acc
	})
	b.Run("bound", func(b *testing.B) {
		f := BlockOwner{NC: nC}.BindSource(r)
		var acc int
		for i := 0; i < b.N; i++ {
			acc += f(int64(i) & (nC - 1))
		}
		sinkOwner = acc
	})
}

// sinkOwner defeats dead-code elimination of the benchmarked owner calls.
var sinkOwner int

// TestBlockOwnerFormsAgree pins the two forms to the same routing
// decisions, so the benchmark compares implementations of one function
// rather than two different owner maps.
func TestBlockOwnerFormsAgree(t *testing.T) {
	const nC = int64(1000)
	unbound := OwnerByBlock(nC)
	for _, r := range []int{1, 3, 16} {
		bound := BlockOwner{NC: nC}.Bind(r)
		for u := int64(0); u < nC; u += 7 {
			if ub, bd := unbound(u, 0, r), bound(u, 0); ub != bd {
				t.Fatalf("r=%d u=%d: unbound=%d bound=%d", r, u, ub, bd)
			}
		}
	}
}
