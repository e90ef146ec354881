package dist

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestRecoverySeeksToStoredPrefix holds a replay to generating nothing it
// already stored. Every cell crashes the rank with the largest share once,
// with a retry to spare: mid-expansion one arc into its first tile of ten
// arcs or more, inside a row near the tile's middle, and at 90 % of it, and
// before its sink is set up and after its walk. The grid is no owner,
// OwnerBySource and a BlockOwner; Count, Memory and Store sinks; R = 1 and
// 3; 1D and 2D plans, whole and sliced to a window whose ends cut a row;
// blocks of 5 and 1024 arcs. Each rank must end with its share of
// Chain.Arcs in order (a count, for the CountSink), and the run must
// generate exactly the plan's closed-form arc count, each rank its share:
// the crashed rank, and at R = 3 the ranks torn down beside it, resume
// every tile at what their sinks stored. With no owner the same crashes
// run through the ordered stream, whose output must be the plan's stream
// exactly (Chain.ArcsFrom's, under 1D) and which may generate, beyond the
// arc count, only a tile's last edge held back by a cut hand-off: one per
// rank.
func TestRecoverySeeksToStoredPrefix(t *testing.T) {
	ch := mustChain(gen.ER(9, 0.5, 721), gen.PrefAttach(14, 3, 722))
	serial := serialArcs(t, ch, 0)
	lo, hi := midRunWindow(t, serial)
	for _, r := range []int{1, 3} {
		for _, twoD := range []bool{false, true} {
			whole, err := planForChain(ch, r, twoD)
			if err != nil {
				t.Fatal(err)
			}
			streams := gridStreams(ch, r)
			if !twoD {
				streams = make([][]graph.Edge, r)
				at := int64(0)
				for _, tl := range whole.orderedTiles() {
					streams[tl.ID] = serial[at : at+whole.FullArcs(tl)]
					at += whole.FullArcs(tl)
				}
			}
			for _, window := range []bool{false, true} {
				plan := whole
				if window {
					if plan, err = whole.Slice(int64(lo), int64(hi-lo)); err != nil {
						t.Fatal(err)
					}
				}
				total, err := plan.TotalArcs()
				if err != nil {
					t.Fatal(err)
				}
				for _, owner := range []Owner{nil, OwnerBySource, BlockOwner{NC: ch.NumVertices()}} {
					want, tiles := rankShares(plan, owner, streams)
					victim := 0
					for rk := range want {
						if len(want[rk]) > len(want[victim]) {
							victim = rk
						}
					}
					before, in := firstTileOf(tiles[victim], 10)
					if in == nil {
						t.Fatalf("r=%d 2d=%v window=%v owner=%T: rank %d has no tile with 10 arcs", r, twoD, window, owner, victim)
					}
					mid := len(in) / 2
					for mid < len(in)-1 && in[mid-1].U != in[mid].U {
						mid++
					}
					crashes := []CrashSpec{
						{Rank: victim, Point: FaultMidExpansion, After: before + 1},
						{Rank: victim, Point: FaultMidExpansion, After: before + int64(mid)},
						{Rank: victim, Point: FaultMidExpansion, After: before + int64(len(in)*9+9)/10},
						{Rank: victim, Point: FaultBeforeSinkSetup},
						{Rank: victim, Point: FaultAfterWalk},
					}
					for _, batch := range []int{5, 1024} {
						for _, crash := range crashes {
							cell := fmt.Sprintf("r=%d 2d=%v window=%v owner=%T batch=%d %v after %d",
								r, twoD, window, owner, batch, crash.Point, crash.After)
							for _, kind := range []string{"count", "memory", "store"} {
								checkResumed(t, cell+", "+kind+" sink", plan, owner, kind, batch, crash, want, total)
							}
							if owner == nil {
								checkStreamResumed(t, cell+", stream", plan, batch, crash, slices.Concat(streamOrder(plan, streams)...), total)
							}
						}
					}
				}
			}
		}
	}
}

// rankShares returns what each rank of plan stores under owner, in the
// order it stores it, and the same split by the tiles it walks (in walk
// order): its planned tiles' streams with no owner, its own arcs of every
// tile's stream, in tile-ID order, under one. streams[id] is tile id's
// unwindowed stream; each tile takes its [Skip, Skip+Arcs) of it.
func rankShares(plan Plan, owner Owner, streams [][]graph.Edge) (want [][]graph.Edge, tiles [][][]graph.Edge) {
	want, tiles = make([][]graph.Edge, plan.R), make([][][]graph.Edge, plan.R)
	window := func(tl Tile) []graph.Edge { return streams[tl.ID][tl.Skip : tl.Skip+plan.Arcs(tl)] }
	if owner == nil {
		for rk, ts := range plan.Tiles {
			for _, tl := range ts {
				tiles[rk] = append(tiles[rk], window(tl))
			}
		}
	} else {
		place := placer(owner, plan)
		for _, tl := range plan.orderedTiles() {
			mine := make([][]graph.Edge, plan.R)
			for _, e := range window(tl) {
				mine[place(e.U)] = append(mine[place(e.U)], e)
			}
			for rk := range mine {
				tiles[rk] = append(tiles[rk], mine[rk])
			}
		}
	}
	for rk := range tiles {
		want[rk] = slices.Concat(tiles[rk]...)
	}
	return want, tiles
}

// firstTileOf returns a rank's first tile share of at least n arcs and how
// many arcs the rank stores before it; nil when it has none.
func firstTileOf(tiles [][]graph.Edge, n int) (before int64, in []graph.Edge) {
	for _, arcs := range tiles {
		if len(arcs) >= n {
			return before, arcs
		}
		before += int64(len(arcs))
	}
	return 0, nil
}

// checkResumed runs plan under one crash with a retry and checks what
// TestRecoverySeeksToStoredPrefix asks of it.
func checkResumed(t *testing.T, cell string, plan Plan, owner Owner, kind string, batch int, crash CrashSpec, want [][]graph.Edge, total int64) {
	t.Helper()
	var sink Sink
	var stores *StoreSink
	switch kind {
	case "count":
		sink = &CountSink{}
	case "memory":
		sink = NewMemorySink(plan.R)
	case "store":
		stores = NewStoreSink(t.TempDir(), plan.R)
		sink = stores
	}
	var st Stats
	err := runWithWatchdog(t, chaosWatchdog, func() (err error) {
		st, err = Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: sink, BatchSize: batch,
			Faults: &FaultPlan{Crashes: []CrashSpec{crash}}, Recovery: Recovery{MaxRetries: 1}})
		return err
	})
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	if st.RecoveredRuns != 1 {
		t.Fatalf("%s: RecoveredRuns = %d, want the crash to have fired and been recovered", cell, st.RecoveredRuns)
	}
	if st.EdgesGenerated != total {
		t.Fatalf("%s: generated %d arcs, want the plan's %d: a replay generated again what was stored", cell, st.EdgesGenerated, total)
	}
	for rk := range want {
		if n := int64(len(want[rk])); st.PerRankGenerated[rk] != n || st.PerRankStored[rk] != n {
			t.Fatalf("%s: rank %d generated %d arcs and stored %d, want its share %d once", cell, rk, st.PerRankGenerated[rk], st.PerRankStored[rk], n)
		}
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("%s: %d buffers still checked out", cell, st.OutstandingBufs)
	}
	switch s := sink.(type) {
	case *CountSink:
		if s.Total() != total {
			t.Fatalf("%s: counted %d arcs, want %d", cell, s.Total(), total)
		}
	case *MemorySink:
		for rk := range want {
			assertSameOrder(t, fmt.Sprintf("%s, rank %d", cell, rk), s.PerRank[rk], want[rk])
		}
	case *StoreSink:
		store, err := stores.Finalize(plan.NC)
		if err != nil {
			t.Fatalf("%s: %v", cell, err)
		}
		for rk := range want {
			var got []graph.Edge
			if err := store.IterShard(rk, func(u, v int64) bool {
				got = append(got, graph.Edge{U: u, V: v})
				return true
			}); err != nil {
				t.Fatalf("%s: %v", cell, err)
			}
			assertSameOrder(t, fmt.Sprintf("%s, shard %d", cell, rk), got, want[rk])
		}
	}
}

// streamOrder returns plan's tiles' windowed streams in tile-ID order: the
// ordered stream's output.
func streamOrder(plan Plan, streams [][]graph.Edge) [][]graph.Edge {
	var out [][]graph.Edge
	for _, tl := range plan.orderedTiles() {
		out = append(out, streams[tl.ID][tl.Skip:tl.Skip+plan.Arcs(tl)])
	}
	return out
}

// checkStreamResumed streams plan under one crash with a retry and checks
// what TestRecoverySeeksToStoredPrefix asks of the ordered stream.
func checkStreamResumed(t *testing.T, cell string, plan Plan, batch int, crash CrashSpec, want []graph.Edge, total int64) {
	t.Helper()
	var got []graph.Edge
	st, err := streamPlan(watchdogCtx(t), plan, batch, Recovery{MaxRetries: 1}, &FaultPlan{Crashes: []CrashSpec{crash}}, func(b []graph.Edge) error {
		got = append(got, b...)
		return nil
	})
	if err != nil {
		t.Fatalf("%s: %v", cell, err)
	}
	if st.RecoveredRuns != 1 {
		t.Fatalf("%s: RecoveredRuns = %d, want the crash to have fired and been recovered", cell, st.RecoveredRuns)
	}
	assertSameOrder(t, cell, got, want)
	if extra := st.EdgesGenerated - total; extra < 0 || extra > int64(plan.R) {
		t.Fatalf("%s: generated %d arcs, want the plan's %d plus at most %d held back", cell, st.EdgesGenerated, total, plan.R)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("%s: %d buffers still checked out", cell, st.OutstandingBufs)
	}
}
