package dist

import (
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// BenchmarkRoute measures placing where it lives, every way an owner can
// ask for it, over RMAT(7)² at R = 4 walked the way the engine does (each
// head arc against the tail, ≤ DefaultBatchSize arcs a block). Every row
// generates every arc of the product once, so every row includes expansion
// and ns/edge is the whole cluster's CPU per arc. ownerSide (the hash
// OwnerBySource resolves to) and ownerSideBlock (BlockOwner) are owner-side
// generation: the walk of each of the R ranks in turn — ownedRows.step, the
// engine's own step — into a discarding sink, so what the ranks pay for
// stepping over sweeps they own nothing of is in the figure R times over.
// byEdge and perEdgeReference are the exchange: one shipper expands a block
// and partitions it across R destinations — the per-edge loop under
// OwnerByEdge, and stage once per edge under the source hash, what placing
// by source cost before anything was done about it — every flushed batch
// handed back through a loopback transport to a discarding handler. expand
// is the bare ExpandNext into a scratch block: the cost to subtract from a
// row to read its placing alone. tinyInner is owner-side generation's
// stated worst case, RMAT(12) ⊗ a 4-vertex factor at R = 16: a sweep is a
// dozen arcs, every rank steps over every one of them and owns a row or two
// of each, so little is amortised. CI (make bench-route) holds ownerSide to
// ≤ 2 × expand and ≤ perEdgeReference in ns/edge, same-process ratios, and
// every row to 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	const r = 4
	a, bb := gen.MustRMAT(gen.Graph500Params(7, 21)), gen.MustRMAT(gen.Graph500Params(7, 22))
	work := splitTiles(a, []*graph.Graph{bb}, 1)
	tiny := splitTiles(gen.MustRMAT(gen.Graph500Params(12, 23)), []*graph.Graph{gen.MustRMAT(gen.Graph500Params(2, 24))}, 1)
	hash := resolveOwner(OwnerBySource).(SourceOwner)
	edgeHash := OwnerByEdge.Bind(r)
	scratch := make([]graph.Edge, 0, DefaultBatchSize)
	// owned is a pass of every rank's owner-side walk, one after another.
	owned := func(work []tileWork, o SourceOwner, r int) func(*shipper) bool {
		walks := make([]ownedRows, r)
		for rank := range walks {
			walks[rank] = ownedRows{owner: o.BindSource(r), rank: rank, batch: DefaultBatchSize,
				scratch: make([]graph.Edge, 0, DefaultBatchSize), buf: make([]graph.Edge, 0, work[0].tail[len(work[0].tail)-1].NumArcs())}
		}
		return func(*shipper) bool {
			for rank := range walks {
				if !walkOwned(&walks[rank], work, func(int, []graph.Edge) bool { return true }) {
					return false
				}
			}
			return true
		}
	}
	routed := func(step routeStep) func(*shipper) bool {
		return func(s *shipper) bool { return walkTiles(s, work, DefaultBatchSize, step) }
	}
	rows := []struct {
		name string
		work []tileWork
		pass func(*shipper) bool
	}{
		{"ownerSide", work, owned(work, hash, r)},
		{"ownerSideBlock", work, owned(work, BlockOwner{NC: a.NumVertices() * bb.NumVertices()}, r)},
		{"byEdge", work, routed(viaBlock(&scratch, func(s *shipper, tile int, block []graph.Edge) bool { return s.route(tile, block, edgeHash) }))},
		{"perEdgeReference", work, routed(viaBlock(&scratch, stageEach(hash.Bind(r))))},
		{"expand", work, routed(viaBlock(&scratch, func(*shipper, int, []graph.Edge) bool { return true }))},
		{"tinyInner", tiny, owned(tiny, hash, 16)},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			rk, _ := loopbackRank(b, r)
			s := newShipper(rk, DefaultBatchSize, func(int, []graph.Edge) {})
			pass := func() {
				if !row.pass(s) {
					b.Fatal("placing refused work")
				}
			}
			pass() // check out the staging buffers and fill the spare stack
			var edges int64
			for _, w := range row.work {
				edges += int64(len(w.aArcs)) * w.cur.Total()
			}
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
// and the plan-time-bound BlockOwner. It is what the router pays per edge
// for an opaque OwnerByBlock(nC) closure, and what owner-side generation
// pays once per row per change of source base for BlockOwner — engine runs
// should pass the latter (BenchmarkRoute measures the placements
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
