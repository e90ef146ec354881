package dist

import (
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// BenchmarkRoute measures the Route stage where it lives: one shipper
// walking RMAT(7)² the way the engine does (each head arc against the
// tail, ≤ DefaultBatchSize arcs a step) and partitioning it across R = 4
// destinations, every flushed batch handed back through a loopback
// transport to a discarding handler — no sink and no second goroutine.
// Every row generates its arcs from the cursor, so every row includes
// expansion: bySource and blockBound take the row router (OwnerBySource
// as callers pass it, and BlockOwner), which expands straight into the
// staging buffers; byEdge expands a block and takes the per-edge loop;
// perEdgeReference expands a block and calls stage once per edge with the
// source hash — what a fault-armed run pays, and the per-edge cost the
// row router is measured against. expand is the bare ExpandNext into a
// scratch block, the cost to subtract from a row to read its routing
// alone. CI (make bench-route) holds bySource to ≤ perEdgeReference in
// ns/edge, a same-process ratio, and every row to 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	const r = 4
	a, bb := gen.MustRMAT(gen.Graph500Params(7, 21)), gen.MustRMAT(gen.Graph500Params(7, 22))
	work := splitTiles(a, []*graph.Graph{bb}, 1)
	edges := a.NumArcs() * bb.NumArcs()
	hash := resolveOwner(OwnerBySource).(SourceOwner)
	hashRuns, hashEdge := hash.BindSource(r), hash.Bind(r)
	blockRuns := BlockOwner{NC: a.NumVertices() * bb.NumVertices()}.BindSource(r)
	edgeHash := OwnerByEdge.Bind(r)
	scratch := make([]graph.Edge, 0, DefaultBatchSize)
	rows := []struct {
		name string
		step routeStep
	}{
		{"bySource", rowStep(hashRuns)},
		{"blockBound", rowStep(blockRuns)},
		{"byEdge", viaBlock(&scratch, func(s *shipper, tile int, block []graph.Edge) bool { return s.route(tile, block, edgeHash) })},
		{"perEdgeReference", viaBlock(&scratch, stageEach(hashEdge))},
		{"expand", viaBlock(&scratch, func(*shipper, int, []graph.Edge) bool { return true })},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			rk, _ := loopbackRank(b, r)
			s := newShipper(rk, DefaultBatchSize, func(int, []graph.Edge) {})
			pass := func() {
				if !walkTiles(s, work, DefaultBatchSize, row.step) {
					b.Fatal("router refused work")
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
// pays per edge for an opaque OwnerByBlock(nC) closure, and what the row
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
