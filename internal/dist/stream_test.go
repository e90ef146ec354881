package dist

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// streamWatchdog bounds every stream in the suites: a stream that stalls
// is torn down through its context and fails its test with a deadline
// error, instead of hanging the binary until go test's own timeout.
const streamWatchdog = 10 * time.Second

// streamBudgets are the retry budgets the stream suites run at: none, the
// one kronserve defaults to, and one that is never the last.
var streamBudgets = []int{0, 1, 3}

func watchdogCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), streamWatchdog)
	t.Cleanup(cancel)
	return ctx
}

// streamArcs streams [offset, offset+limit) of the chain under the
// watchdog and returns the arcs in delivery order.
func streamArcs(t testing.TB, ch *core.Chain, r int, twoD bool, batch int, offset, limit int64, rec Recovery) ([]graph.Edge, Stats) {
	t.Helper()
	var out []graph.Edge
	st, err := StreamChainFrom(watchdogCtx(t), ch, r, twoD, batch, offset, limit, rec, func(b []graph.Edge) error {
		out = append(out, b...)
		return nil
	})
	if err != nil {
		t.Fatalf("stream r=%d twoD=%v batch=%d [%d,+%d) retries=%d: %v", r, twoD, batch, offset, limit, rec.MaxRetries, err)
	}
	return out, st
}

// serialArcs is the oracle: the chain's arcs from offset on, in
// core.Chain.ArcsFrom order.
func serialArcs(t testing.TB, ch *core.Chain, offset int64) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if _, err := ch.ArcsFrom(offset, func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameOrder(t testing.TB, what string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d arcs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arc %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sortedArcs(arcs []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), arcs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func TestStreamMatchesProduct(t *testing.T) {
	a := gen.PrefAttach(12, 2, 3)
	b := gen.ER(9, 0.4, 4)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-1", 1, false}, {"1d-4", 4, false}, {"2d-4", 4, true}, {"2d-7", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, retries := range streamBudgets {
				arcs, stats := streamArcs(t, mustChain(a, b), tc.r, tc.twoD, 64, 0, -1, Recovery{MaxRetries: retries})
				got, err := graph.New(want.NumVertices(), arcs)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatal("streamed arcs do not rebuild A ⊗ B")
				}
				if stats.EdgesGenerated != a.NumArcs()*b.NumArcs() {
					t.Errorf("EdgesGenerated = %d, want %d", stats.EdgesGenerated, a.NumArcs()*b.NumArcs())
				}
				if stats.EdgesRouted != stats.EdgesGenerated || stats.BytesSent != 16*stats.EdgesGenerated {
					t.Errorf("routing counters inconsistent: %+v", stats)
				}
			}
		})
	}
}

// TestStreamTileNotMultipleOfBatch is the case the two sink lifetimes used
// to sit on either side of: every rank ends its tile on a sub-batch tail
// (ER(20,.5)² has 39140 arcs; no tile is a multiple of 1024 or 16), with
// and without a retry budget. With a budget the tail used to wait for a
// Close that came after the attempt, and the stream hung.
func TestStreamTileNotMultipleOfBatch(t *testing.T) {
	ch := mustChain(gen.ER(20, 0.5, 1), gen.ER(20, 0.5, 2))
	serial := serialArcs(t, ch, 0)
	for _, r := range []int{2, 3, 4} {
		for _, batch := range []int{1024, 16} {
			for _, retries := range streamBudgets {
				rec := Recovery{MaxRetries: retries}
				what := fmt.Sprintf("r=%d batch=%d retries=%d", r, batch, retries)
				got, st := streamArcs(t, ch, r, false, batch, 0, -1, rec)
				assertSameOrder(t, "1d "+what, got, serial)
				if st.OutstandingBufs != 0 {
					t.Fatalf("1d %s: %d buffers outstanding", what, st.OutstandingBufs)
				}
				got, st = streamArcs(t, ch, r, true, batch, 0, -1, rec)
				assertSameOrder(t, "2d "+what+" (sorted)", sortedArcs(got), sortedArcs(serial))
				if st.OutstandingBufs != 0 {
					t.Fatalf("2d %s: %d buffers outstanding", what, st.OutstandingBufs)
				}
			}
		}
	}
}

// TestStreamRecoversExactlyOnce injects one rank crash at every fault
// point on every rank, 1D and 2D: the recovered stream is the clean
// stream, arc for arc — under 1D, core.Chain.ArcsFrom itself — with
// nothing delivered twice and every buffer returned.
func TestStreamRecoversExactlyOnce(t *testing.T) {
	ch := mustChain(gen.PrefAttach(9, 2, 91), gen.ER(8, 0.5, 92))
	const r, batch = 3, 16
	for _, twoD := range []bool{false, true} {
		plan, err := planForChain(ch, r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		stream := func(faults *FaultPlan, rec Recovery) ([]graph.Edge, Stats, error) {
			var out []graph.Edge
			st, err := streamPlan(watchdogCtx(t), plan, batch, rec, faults, func(b []graph.Edge) error {
				out = append(out, b...)
				return nil
			})
			return out, st, err
		}
		want, _, err := stream(nil, Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		if twoD {
			assertSameOrder(t, "clean 2d stream (sorted)", sortedArcs(want), sortedArcs(serialArcs(t, ch, 0)))
		} else {
			assertSameOrder(t, "clean 1d stream", want, serialArcs(t, ch, 0))
		}
		for rank, work := range plan.RankArcs() {
			for _, pt := range []FaultPoint{FaultBeforeSinkSetup, FaultMidExpansion, FaultAfterWalk} {
				name := fmt.Sprintf("twoD=%v/rank%d/%v", twoD, rank, pt)
				spec := CrashSpec{Rank: rank, Point: pt}
				if pt == FaultMidExpansion {
					spec.After = work / 2 // die with half the rank's arcs accepted
				}
				faults := &FaultPlan{Crashes: []CrashSpec{spec}}

				// No budget: the crash is returned unchanged.
				_, st, err := stream(faults, Recovery{})
				var rc *RankCrashError
				if !errors.As(err, &rc) || rc.Rank != rank || rc.Point != pt {
					t.Fatalf("%s, no retries: err = %v, want the injected crash", name, err)
				}
				if st.OutstandingBufs != 0 {
					t.Fatalf("%s, no retries: %d buffers outstanding", name, st.OutstandingBufs)
				}

				// One retry: the stream is the clean stream.
				got, st, err := stream(faults, Recovery{MaxRetries: 1})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				assertSameOrder(t, name, got, want)
				if st.OutstandingBufs != 0 {
					t.Fatalf("%s: %d buffers outstanding", name, st.OutstandingBufs)
				}
				if st.RecoveredRuns != 1 || st.RetriesPerRank[rank] != 1 {
					t.Fatalf("%s: RecoveredRuns=%d RetriesPerRank=%v, want one retry blamed on rank %d",
						name, st.RecoveredRuns, st.RetriesPerRank, rank)
				}
				// What every rank had accepted of the tiles it was on is
				// resumed past on the replay, not generated again (the tiles
				// it had finished are committed and not replayed at all):
				// only a tile's last edge, held back by a hand-off the
				// teardown cut, is generated twice — one per rank at most.
				if extra := st.EdgesGenerated - int64(len(want)); extra < 0 || extra > r {
					t.Fatalf("%s: generated %d arcs, want the stream's %d plus at most %d held back", name, st.EdgesGenerated, len(want), r)
				}
				if st.EdgesRouted != int64(len(want)) {
					t.Fatalf("%s: %d arcs handed to the consumer, want %d", name, st.EdgesRouted, len(want))
				}
			}
		}
	}
}

// TestStreamSinkHoldsBackTileTail drives the one hand-off a replay has to
// cover on its own: teardown interrupts the hand-off of a tile's tail. The sink must report the tile one arc short — so the tile does
// not commit and the rank is sent back to it — and then complete the
// hand-off, every arc once, when the replay delivers that arc.
func TestStreamSinkHoldsBackTileTail(t *testing.T) {
	plan, err := PlanChain1D(mustChain(gen.Ring(3), gen.Ring(4)), 1)
	if err != nil {
		t.Fatal(err)
	}
	tile := plan.Tiles[0][0]
	var arcs []graph.Edge
	for _, a := range tile.AArcs {
		arcs = core.ExpandBlock(a, plan.Tail[0].ArcSlice(), plan.Tail[0].NumVertices(), arcs)
	}
	n := int64(len(arcs))
	if n != plan.Arcs(tile) || n < 2 {
		t.Fatalf("test tile has %d arcs, plan says %d", n, plan.Arcs(tile))
	}

	sink := newStreamSink(watchdogCtx(t), int(n)+10, plan) // only tile completion hands off
	c, err := newCluster(1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := sink.Rank(&Rank{id: 0, c: c})
	if err != nil {
		t.Fatal(err)
	}
	tbs := rs.(TileBlockStorer)

	// Attempt 0: the consumer is busy elsewhere (channel full) and the
	// attempt is torn down while the tail waits.
	for i := 0; i < streamChanDepth; i++ {
		sink.chans[0] <- streamBatch{tile: -1}
	}
	boom := errors.New("another rank died")
	c.cancel(boom)
	stored, err := tbs.StoreTileBlock(tile.ID, arcs)
	if !errors.Is(err, boom) || stored != n-1 {
		t.Fatalf("interrupted tail hand-off: stored %d, err %v; want %d and the teardown cause", stored, err, n-1)
	}

	// Attempt 1: the replay seeks past the n-1 stored arcs and delivers the
	// last one.
	c.Reset()
	for i := 0; i < streamChanDepth; i++ {
		<-sink.chans[0]
	}
	stored, err = tbs.StoreTileBlock(tile.ID, arcs[n-1:])
	if err != nil || stored != 1 {
		t.Fatalf("replayed last arc: stored %d, err %v", stored, err)
	}
	b := <-sink.chans[0]
	if b.tile != tile.ID {
		t.Fatalf("handed over tile %d, want %d", b.tile, tile.ID)
	}
	assertSameOrder(t, "tile handed over after replay", b.edges, arcs)
	sink.recycle(b.edges)
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}
	if sink.outstanding != 0 {
		t.Fatalf("%d stream buffers outstanding", sink.outstanding)
	}
}

func TestStreamEmitErrorStops(t *testing.T) {
	a := gen.ER(40, 0.3, 1)
	b := gen.ER(40, 0.3, 2)
	sentinel := errors.New("downstream full")
	for _, retries := range streamBudgets {
		calls := 0
		_, err := StreamChainFrom(watchdogCtx(t), mustChain(a, b), 4, false, 32, 0, -1, Recovery{MaxRetries: retries}, func([]graph.Edge) error {
			calls++
			if calls >= 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("retries=%d: want sentinel error, got %v", retries, err)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	a := gen.ER(40, 0.3, 5)
	b := gen.ER(40, 0.3, 6)
	total := a.NumArcs() * b.NumArcs()
	for _, retries := range streamBudgets {
		ctx, cancel := context.WithCancel(watchdogCtx(t))
		var got int64
		_, err := StreamChainFrom(ctx, mustChain(a, b), 3, true, 16, 0, -1, Recovery{MaxRetries: retries}, func(batch []graph.Edge) error {
			got += int64(len(batch))
			if got > 100 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("retries=%d: want context.Canceled, got %v", retries, err)
		}
		if got >= total {
			t.Errorf("retries=%d: cancellation did not stop the stream: saw %d of %d", retries, got, total)
		}
	}
}

func TestStreamBadRanks(t *testing.T) {
	a := gen.Ring(4)
	if _, err := StreamChainFrom(watchdogCtx(t), mustChain(a, a), 0, false, 0, 0, -1, Recovery{}, func([]graph.Edge) error { return nil }); err == nil {
		t.Error("r=0 should error")
	}
}
