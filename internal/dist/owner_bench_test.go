package dist

import (
	"context"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// BenchmarkRoute measures placing where it lives, over RMAT(7)² at R = 4
// walked the way the engine does (each head arc against the tail,
// ≤ DefaultBatchSize arcs a block). Every row generates every arc of the
// product once, so every row includes expansion and ns/edge is the whole
// cluster's CPU per arc. ownerSide (OwnerBySource's source form) and
// ownerSideBlock (BlockOwner) are owner-side generation: the walk of each of
// the R ranks in turn — walkOwned, which drives ownedRows' sweep and next as
// walk.tiles does — into a discarding sink, so what the ranks pay for
// stepping over sweeps they own nothing of is in the figure R times over.
// ownerSide's innermost factor has 128 vertices, so its ranks look their
// picks up in class partitions they share, as an attempt's ranks do;
// ownerSideOdd is the same arcs on 129 vertices, where OwnerBySource picks
// every sweep's rows one by one, as ownerSideBlock does.
// ownerSideOne is the same walk at R = 1, where the one rank owns every row
// and the pick is the factor itself, copied nothing: the cost to subtract
// from ownerSide to read its placing alone. expand is the bare ExpandNext
// into a scratch block. The walk and the cursor run one kernel body on every
// host (core.TailCursor.Packed picks it for both: the packed copy of the
// factor where the probe found AVX-512), so ownerSideOne and expand differ
// by the walk's bookkeeping, and ownerSide by that and the placing.
// tinyInner is owner-side generation's stated worst case, RMAT(12) ⊗ a
// 4-vertex factor at R = 16: a sweep is a dozen arcs, every rank steps over
// every one of them and owns a row or two of each, so little is amortised.
// engine is the engine itself: Run with no owner into a CountSink, the
// product planned on one rank so one goroutine walks it — expand's work plus
// the engine's per-block path (the sink call through the fence, the
// stop-flag load) and one run's set-up, the only row that allocates. The
// owner-side rows also report skew, the busiest rank's arcs over ideal. CI
// (make bench-route) holds ownerSide to ≤ 3 × ownerSideOne and ≤ 3.5 ×
// expand in ns/edge, same-process ratios, and ownerSideOdd to ≤ 3.5 ×
// expand, both to a skew ≤ 1.10, engine to its bound over expand, and every
// other row to 0 allocs/op.
func BenchmarkRoute(b *testing.B) {
	const r = 4
	a, bb := gen.MustRMAT(gen.Graph500Params(7, 21)), gen.MustRMAT(gen.Graph500Params(7, 22))
	work := splitTiles(a, []*graph.Graph{bb}, 1)
	// The same arcs on 129 vertices: an isolated vertex more, so that
	// OwnerBySource picks the rows of every sweep one by one.
	odd := splitTiles(a, []*graph.Graph{mustGraph(bb.NumVertices()+1, bb.ArcSlice())}, 1)
	tiny := splitTiles(gen.MustRMAT(gen.Graph500Params(12, 23)), []*graph.Graph{gen.MustRMAT(gen.Graph500Params(2, 24))}, 1)
	// owned is a pass of every rank's owner-side walk, one after another;
	// perRank (one entry a rank) is handed the arcs each generated.
	owned := func(work []tileWork, o Owner, perRank []int64) func() bool {
		r := len(perRank)
		bySource := o.BindSource(r)
		classes := newClassPicks(o, bySource, r)
		walks := make([]ownedRows, r)
		for rank := range walks {
			walks[rank] = ownedRows{owner: bySource, rank: rank, batch: DefaultBatchSize, classes: classes, scratch: make([]graph.Edge, 0, DefaultBatchSize)}
		}
		return func() bool {
			for rank := range walks {
				if !walkOwned(&walks[rank], work, func(_ int, block []graph.Edge) bool { perRank[rank] += int64(len(block)); return true }) {
					return false
				}
			}
			return true
		}
	}
	scratch := make([]graph.Edge, 0, DefaultBatchSize)
	expand := func() bool {
		for _, w := range work {
			nT := w.cur.NumVertices()
			for _, a := range w.aArcs {
				w.cur.Reset()
				for block := w.cur.ExpandNext(a.U*nT, a.V*nT, scratch, DefaultBatchSize); len(block) > 0; block = w.cur.ExpandNext(a.U*nT, a.V*nT, scratch, DefaultBatchSize) {
					scratch = block[:0]
				}
			}
		}
		return true
	}
	one, err := PlanChain1D(mustChain(a, bb), 1)
	if err != nil {
		b.Fatal(err)
	}
	engine := func() bool {
		_, err := Run(context.Background(), Config{Plan: one, Sink: &CountSink{}})
		return err == nil
	}
	hashArcs, oneArcs, oddArcs, blockArcs, tinyArcs := make([]int64, r), make([]int64, 1), make([]int64, r), make([]int64, r), make([]int64, 16)
	rows := []struct {
		name    string
		work    []tileWork
		pass    func() bool
		perRank []int64 // owner-side rows: arcs generated by each rank
	}{
		{"ownerSide", work, owned(work, OwnerBySource, hashArcs), hashArcs},
		{"ownerSideOne", work, owned(work, OwnerBySource, oneArcs), oneArcs},
		{"ownerSideOdd", odd, owned(odd, OwnerBySource, oddArcs), oddArcs},
		{"ownerSideBlock", work, owned(work, BlockOwner{NC: a.NumVertices() * bb.NumVertices()}, blockArcs), blockArcs},
		{"expand", work, expand, nil},
		{"engine", work, engine, nil},
		{"tinyInner", tiny, owned(tiny, OwnerBySource, tinyArcs), tinyArcs},
	}
	for _, row := range rows {
		b.Run(row.name, func(b *testing.B) {
			pass := func() {
				if !row.pass() {
					b.Fatal("placing refused work")
				}
			}
			clear(row.perRank)
			pass() // warm the freelist and the picks
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
			if row.perRank != nil {
				// The busiest rank's arcs over the ideal 1/R share: a count, the
				// same on every machine, and what a real run's wall follows
				// since a rank generates what it stores.
				b.ReportMetric(float64(maxOf(row.perRank))*float64(len(row.perRank))/float64(int64(b.N+1)*edges), "skew")
			}
		})
	}
}

// BenchmarkOwnerByBlock measures one evaluation of BlockOwner's source
// form, what owner-side generation pays once per row per change of source
// base (BenchmarkRoute measures the placements themselves).
func BenchmarkOwnerByBlock(b *testing.B) {
	const nC = int64(1) << 40
	const r = 16
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

// TestBlockOwnerFormsAgree pins the name bench places by, OwnerByBlock(nC),
// to BlockOwner{NC: nC}, so bench's owned-over-routed ratio times one owner
// map twice; and holds that map's source form to its definition: the ranks
// own consecutive blocks of ⌈nC/r⌉ sources, the last one the remainder.
func TestBlockOwnerFormsAgree(t *testing.T) {
	const nC = int64(1000)
	if o := OwnerByBlock(nC); o != (BlockOwner{NC: nC}) {
		t.Fatalf("OwnerByBlock(%d) = %+v, want BlockOwner{NC: %d}", nC, o, nC)
	}
	for _, r := range []int{1, 3, 16} {
		bound := OwnerByBlock(nC).BindSource(r)
		per := (nC + int64(r) - 1) / int64(r)
		for u := int64(0); u < nC; u++ {
			if got, want := bound(u), min(int(u/per), r-1); got != want {
				t.Fatalf("r=%d u=%d: the source form says %d, the %d-source block holding u is %d", r, u, got, per, want)
			}
		}
	}
}
