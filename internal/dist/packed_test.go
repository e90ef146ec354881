package dist

// Packed blocks at the edges of the id range: every product is walked in
// packed arcs (u | v<<32) relative to a block's base pair, whatever its
// size, and a sink that takes only wide blocks is handed them widened by
// fencedRankSink.store.

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// sparseFactor is an n-vertex factor of a dozen arcs that touch both ends
// of the id range: vertex 0, vertex n−1 (a loop on it among them) and a few
// in between.
func sparseFactor(n int64) *graph.Graph {
	arcs := []graph.Edge{{U: 0, V: 0}, {U: 0, V: n - 1}, {U: n - 1, V: 0}, {U: n - 1, V: n - 1}, {U: n - 1, V: n / 2}}
	for i := int64(1); i <= 7; i++ {
		arcs = append(arcs, graph.Edge{U: i * (n / 9), V: n - 1 - i*i})
	}
	return mustGraph(n, arcs)
}

// shares is what each of plan's ranks must hold of serial: under owner the arcs
// whose source it owns, in order; with no owner all of them, on rank 0 —
// the ranks' outputs concatenated in rank order, which a 1D plan makes the
// serial order.
func shares(serial []graph.Edge, owner Owner, plan Plan) [][]graph.Edge {
	out := make([][]graph.Edge, plan.R)
	if owner == nil {
		out[0] = serial
		return out
	}
	bySource := placer(owner, plan)
	for _, e := range serial {
		out[bySource(e.U)] = append(out[bySource(e.U)], e)
	}
	return out
}

// byRank returns got as shares lays want out: unchanged under an owner,
// concatenated onto rank 0 without one.
func byRank(got [][]graph.Edge, owner Owner) [][]graph.Edge {
	if owner != nil {
		return got
	}
	out := make([][]graph.Edge, len(got))
	out[0] = slices.Concat(got...)
	return out
}

// TestProductsAroundPackedIDs runs a product of 2³³ + 2¹⁷ vertices and one
// of exactly 2³², whose last arc is (2³²−1, 2³²−1), where an add that
// carried from U would show in V — built from sparse factors so the arcs
// stay few. (Both are walked in packed blocks; the test is named for the
// boundary between the wide and packed walks it once sat on.) Each goes through the Count, Memory and Store sinks at R = 3
// with no owner and under OwnerBySource, at batch 3 and the default, and
// through the ordered stream; every rank's output is held arc for arc to
// its share of Chain.Arcs.
func TestProductsAroundPackedIDs(t *testing.T) {
	const r = 3
	for _, c := range []struct {
		name string
		ch   *core.Chain
	}{
		{"wide", mustChain(sparseFactor(1<<17), sparseFactor(1<<16+1))},
		{"exact", mustChain(sparseFactor(1<<16), sparseFactor(1<<16))},
	} {
		t.Run(c.name, func(t *testing.T) {
			plan, err := PlanChain1D(c.ch, r)
			if err != nil {
				t.Fatal(err)
			}
			serial := serialArcs(t, c.ch, 0)
			if last, top := serial[len(serial)-1], c.ch.NumVertices()-1; last != (graph.Edge{U: top, V: top}) {
				t.Fatalf("the last arc is %v, want (%d, %d)", last, top, top)
			}
			for _, owner := range []Owner{nil, OwnerBySource} {
				want := shares(serial, owner, plan)
				for _, batch := range []int{3, DefaultBatchSize} {
					cell := fmt.Sprintf("owner %v batch %d", owner != nil, batch)
					cfg := Config{Plan: plan, Owner: owner, BatchSize: batch}

					count := &CountSink{}
					cfg.Sink = count
					if _, err := Run(context.Background(), cfg); err != nil || count.Total() != int64(len(serial)) {
						t.Fatalf("%s, CountSink: %d arcs, err %v; want %d", cell, count.Total(), err, len(serial))
					}

					mem := NewMemorySink(r)
					cfg.Sink = mem
					if _, err := Run(context.Background(), cfg); err != nil {
						t.Fatalf("%s, MemorySink: %v", cell, err)
					}
					for rk, arcs := range byRank(mem.PerRank, owner) {
						assertSameOrder(t, fmt.Sprintf("%s, MemorySink rank %d", cell, rk), arcs, want[rk])
					}

					ss := NewStoreSink(t.TempDir(), r)
					cfg.Sink = ss
					if _, err := Run(context.Background(), cfg); err != nil {
						t.Fatalf("%s, StoreSink: %v", cell, err)
					}
					st, err := ss.Finalize(plan.NC)
					if err != nil {
						t.Fatalf("%s, StoreSink: %v", cell, err)
					}
					shards := make([][]graph.Edge, r)
					for i := range shards {
						if err := st.IterShard(i, func(u, v int64) bool { shards[i] = append(shards[i], graph.Edge{U: u, V: v}); return true }); err != nil {
							t.Fatalf("%s, StoreSink shard %d: %v", cell, i, err)
						}
					}
					for rk, arcs := range byRank(shards, owner) {
						assertSameOrder(t, fmt.Sprintf("%s, StoreSink shard %d", cell, rk), arcs, want[rk])
					}
				}
			}
			for _, batch := range []int{3, DefaultBatchSize} {
				var got []graph.Edge
				if _, err := StreamChainFrom(context.Background(), c.ch, r, false, batch, 0, -1, Recovery{}, func(b []graph.Edge) error {
					got = append(got, b...)
					return nil
				}); err != nil {
					t.Fatalf("stream batch %d: %v", batch, err)
				}
				assertSameOrder(t, fmt.Sprintf("stream batch %d", batch), got, serial)
			}
		})
	}
}

// TestProductsAroundNarrowIDs runs products whose innermost factor has 2¹⁶
// vertices — the most core reads narrow, 4 bytes an arc, as it does where
// the probe found AVX-512 — and 2¹⁶+1, read packed on every host, at k = 2
// and k = 3, each whole and in a window whose Skip and Take cut a sweep
// mid-row at both ends, at R = 3 with no owner, under OwnerBySource and
// under a BlockOwner, at batch 5 and the default. Every rank's output is
// held arc for arc to its share of Chain.Arcs, and the picks' counters,
// OwnerRowsTested and ArcsCompacted, must read the same for both innermost
// factors, whose sweeps have one shape.
func TestProductsAroundNarrowIDs(t *testing.T) {
	const r = 3
	head, mid := sparseFactor(1<<10), gen.ER(4, 0.7, 601)
	type counters struct{ rows, compacted int64 }
	seen := map[string]counters{}
	for _, n := range []int64{1 << 16, 1<<16 + 1} {
		inner := sparseFactor(n)
		if narrow := core.SourceOf(inner).Narrow(); narrow != (n <= 1<<16 && core.Kernel() == "avx512") {
			t.Fatalf("n = %d on %s: read narrow %v", n, core.Kernel(), narrow)
		}
		for _, ch := range []*core.Chain{mustChain(head, inner), mustChain(head, mid, inner)} {
			whole, err := PlanChain1D(ch, r)
			if err != nil {
				t.Fatal(err)
			}
			serial := serialArcs(t, ch, 0)
			// A sweep is inner's 12 arcs: rows 0 (2 arcs), seven of one, n−1 (3).
			for _, win := range [][2]int{{0, len(serial)}, {3*12 + 1, len(serial) - 2*12 - 2}} {
				plan, err := whole.Slice(int64(win[0]), int64(win[1]-win[0]))
				if err != nil {
					t.Fatal(err)
				}
				for _, owner := range []Owner{nil, OwnerBySource, BlockOwner{NC: whole.NC}} {
					want := shares(serial[win[0]:win[1]], owner, plan)
					for _, batch := range []int{5, DefaultBatchSize} {
						cell := fmt.Sprintf("k=%d window %v owner %T batch %d", len(ch.Factors()), win, owner, batch)
						mem := NewMemorySink(r)
						st, err := Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: mem, BatchSize: batch})
						if err != nil {
							t.Fatalf("n = %d, %s: %v", n, cell, err)
						}
						for rk, arcs := range byRank(mem.PerRank, owner) {
							assertSameOrder(t, fmt.Sprintf("n = %d, %s, rank %d", n, cell, rk), arcs, want[rk])
						}
						c := counters{st.OwnerRowsTested, st.ArcsCompacted}
						if prev, ok := seen[cell]; ok && c != prev {
							t.Fatalf("%s: OwnerRowsTested, ArcsCompacted = %v at n = %d, %v at 2¹⁶", cell, c, n, prev)
						}
						seen[cell] = c
					}
				}
			}
		}
	}
}

// TestProductsAroundTail32 runs k = 3 products around the 2³² tail
// vertices a packed word holds: over an innermost factor of 2¹⁶ vertices
// (read narrow where the probe found AVX-512) tails of exactly 2³², whose
// last arc is (2³²−1, 2³²−1) in the word, and of 2³³; over one of 2¹⁶+1
// (read packed on every host) tails of 2³² + 2¹⁶ and 2³³ + 2¹⁷. Past 2³²
// the middle factor's digit rides in each block's base, not in its words.
// Each product runs at R = 3 with no owner, under OwnerBySource and under a
// BlockOwner, whole and in a window whose Skip and Take cut a sweep mid-row
// at both ends, into the Count, Memory and Store sinks at batch 5 and the
// default, and through the ordered stream; every rank's output is held arc
// for arc to its share of Chain.Arcs.
func TestProductsAroundTail32(t *testing.T) {
	const r = 3
	head := sparseFactor(64)
	for _, c := range []struct{ mid, inner int64 }{{1 << 16, 1 << 16}, {1 << 17, 1 << 16}, {1 << 16, 1<<16 + 1}, {1 << 17, 1<<16 + 1}} {
		ch := mustChain(head, sparseFactor(c.mid), sparseFactor(c.inner))
		t.Run(fmt.Sprintf("tail%d_inner%d", c.mid*c.inner, c.inner), func(t *testing.T) {
			var serial []graph.Edge
			ch.Arcs(func(u, v int64) bool { serial = append(serial, graph.Edge{U: u, V: v}); return true })
			whole, err := PlanChain1D(ch, r)
			if err != nil {
				t.Fatal(err)
			}
			// A sweep is inner's 12 arcs: rows 0 (2 arcs), seven of one, n−1 (3).
			for _, win := range [][2]int{{0, len(serial)}, {3*12 + 1, len(serial) - 2*12 - 2}} {
				plan, err := whole.Slice(int64(win[0]), int64(win[1]-win[0]))
				if err != nil {
					t.Fatal(err)
				}
				for _, owner := range []Owner{nil, OwnerBySource, BlockOwner{NC: whole.NC}} {
					want := shares(serial[win[0]:win[1]], owner, plan)
					for _, batch := range []int{5, DefaultBatchSize} {
						cell := fmt.Sprintf("window %v owner %T batch %d", win, owner, batch)
						cfg := Config{Plan: plan, Owner: owner, BatchSize: batch}

						count := &CountSink{}
						cfg.Sink = count
						if _, err := Run(context.Background(), cfg); err != nil || count.Total() != int64(win[1]-win[0]) {
							t.Fatalf("%s, CountSink: %d arcs, err %v; want %d", cell, count.Total(), err, win[1]-win[0])
						}

						mem := NewMemorySink(r)
						cfg.Sink = mem
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatalf("%s, MemorySink: %v", cell, err)
						}
						for rk, arcs := range byRank(mem.PerRank, owner) {
							assertSameOrder(t, fmt.Sprintf("%s, MemorySink rank %d", cell, rk), arcs, want[rk])
						}

						ss := NewStoreSink(t.TempDir(), r)
						cfg.Sink = ss
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatalf("%s, StoreSink: %v", cell, err)
						}
						st, err := ss.Finalize(plan.NC)
						if err != nil {
							t.Fatalf("%s, StoreSink: %v", cell, err)
						}
						shards := make([][]graph.Edge, r)
						for i := range shards {
							if err := st.IterShard(i, func(u, v int64) bool { shards[i] = append(shards[i], graph.Edge{U: u, V: v}); return true }); err != nil {
								t.Fatalf("%s, StoreSink shard %d: %v", cell, i, err)
							}
						}
						for rk, arcs := range byRank(shards, owner) {
							assertSameOrder(t, fmt.Sprintf("%s, StoreSink shard %d", cell, rk), arcs, want[rk])
						}
					}
				}
				for _, batch := range []int{5, DefaultBatchSize} {
					var got []graph.Edge
					if _, err := StreamChainFrom(context.Background(), ch, r, false, batch, int64(win[0]), int64(win[1]-win[0]), Recovery{}, func(b []graph.Edge) error {
						got = append(got, b...)
						return nil
					}); err != nil {
						t.Fatalf("window %v, stream batch %d: %v", win, batch, err)
					}
					assertSameOrder(t, fmt.Sprintf("window %v, stream batch %d", win, batch), got, serial[win[0]:win[1]])
				}
			}
		})
	}
}

// TestHandBuiltPlanFormFromTiles runs plans built by hand, as a caller that
// builds or rebalances a Plan may, with NC left at 0 or set too small: the
// walk must follow the ids the tiles expand to, not NC. Two products — one
// whose ids fit 32 bits and one whose do not — are each run from their
// R = 1 tile, with no owner and under OwnerBySource; every rank's
// output is held arc for arc to its share of Chain.Arcs. They are
// TestProductsAroundPackedIDs' exact product, 2³² vertices, and a wide one
// of 2³³ + 2¹⁶ on the same innermost factor size, which OwnerBySource binds
// its map to (sourceForm).
func TestHandBuiltPlanFormFromTiles(t *testing.T) {
	wide, exact := mustChain(sparseFactor(1<<17+1), sparseFactor(1<<16)), mustChain(sparseFactor(1<<16), sparseFactor(1<<16))
	byHand := func(ch *core.Chain, nc int64) Plan {
		plan, err := PlanChain1D(ch, 1)
		if err != nil {
			t.Fatal(err)
		}
		return Plan{R: 1, NC: nc, Tail: plan.Tail, Tiles: plan.Tiles}
	}
	wideArcs, exactArcs := serialArcs(t, wide, 0), serialArcs(t, exact, 0)
	for _, c := range []struct {
		name   string
		plan   Plan
		serial [][]graph.Edge // what each rank's tiles expand to, in order
	}{
		{"wide", byHand(wide, 0), [][]graph.Edge{wideArcs}},
		{"wide_nc_small", byHand(wide, exact.NumVertices()), [][]graph.Edge{wideArcs}},
		{"exact", byHand(exact, 0), [][]graph.Edge{exactArcs}},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := c.plan.R
			for _, owner := range []Owner{nil, OwnerBySource} {
				want := c.serial
				if owner != nil {
					want = shares(slices.Concat(c.serial...), owner, c.plan)
				}
				mem := NewMemorySink(r)
				if _, err := Run(context.Background(), Config{Plan: c.plan, Owner: owner, Sink: mem, BatchSize: 3}); err != nil {
					t.Fatalf("owner %v: %v", owner != nil, err)
				}
				for rk, arcs := range mem.PerRank {
					assertSameOrder(t, fmt.Sprintf("owner %v, rank %d", owner != nil, rk), arcs, want[rk])
				}
			}
		})
	}
}

// wideRank records its rank's edges through one wide path: Store alone
// ("store"), or StoreBlock or StoreTileBlock — the shapes of a sink wrapper
// that forwards the wide interfaces only — whose Store refuses, so an edge
// delivered any other way fails the run.
type wideRank struct {
	got    *[]graph.Edge
	blocks bool // Store refuses: the sink takes blocks
}

func (w *wideRank) Store(e graph.Edge) error {
	if w.blocks {
		return errors.New("a block sink was handed a single edge")
	}
	*w.got = append(*w.got, e)
	return nil
}

func (w *wideRank) Close() error { return nil }

type blockOnlyRank struct{ *wideRank }

func (b blockOnlyRank) StoreBlock(edges []graph.Edge) (int64, error) {
	*b.got = append(*b.got, edges...)
	return int64(len(edges)), nil
}

type tileOnlyRank struct {
	*wideRank
	sizes *[]int // every block's length, in order
}

func (b tileOnlyRank) StoreTileBlock(_ int, edges []graph.Edge) (int64, error) {
	*b.got = append(*b.got, edges...)
	*b.sizes = append(*b.sizes, len(edges))
	return int64(len(edges)), nil
}

// wideSink hands each rank a wideRank of one shape.
type wideSink struct {
	shape string
	got   [][]graph.Edge
	sizes [][]int
}

func (s *wideSink) Rank(rk *Rank) (RankSink, error) {
	w := &wideRank{got: &s.got[rk.ID()], blocks: s.shape != "store"}
	switch s.shape {
	case "block":
		return blockOnlyRank{w}, nil
	case "tile":
		return tileOnlyRank{w, &s.sizes[rk.ID()]}, nil
	}
	return w, nil
}

// TestFenceWidensForWideSinks runs a product into sinks that take only
// Store, only StoreBlock and only
// StoreTileBlock, none of them PackedBlockStorer, so the fenced sink widens
// every block for them. Each run crashes one rank inside a block (the
// crash point taken from a clean run's block boundaries) with a retry to
// spare, at R = 1 and 3, with no owner and under OwnerBySource: the output
// must be each rank's share of Chain.Arcs exactly once, in order; the run
// must generate exactly the product's arcs, and each rank exactly what it
// stored — the replay resumes at the crashed attempt's stored prefix and
// generates none of it again; and no buffer out.
func TestFenceWidensForWideSinks(t *testing.T) {
	ch := mustChain(gen.ER(7, 0.5, 611), gen.PrefAttach(6, 2, 612))
	serial := serialArcs(t, ch, 0)
	const batch = 5
	for _, r := range []int{1, 3} {
		plan, err := PlanChain1D(ch, r)
		if err != nil {
			t.Fatal(err)
		}
		victim := r - 1
		for _, owner := range []Owner{nil, OwnerBySource} {
			want := shares(serial, owner, plan)
			run := func(shape string, faults *FaultPlan) (*wideSink, Stats, error) {
				sink := &wideSink{shape: shape, got: make([][]graph.Edge, r), sizes: make([][]int, r)}
				var st Stats
				err := runWithWatchdog(t, chaosWatchdog, func() (err error) {
					st, err = Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: sink, BatchSize: batch,
						Faults: faults, Recovery: Recovery{MaxRetries: 1}})
					return err
				})
				return sink, st, err
			}
			clean, _, err := run("tile", nil)
			if err != nil {
				t.Fatalf("r=%d owner %v: clean run: %v", r, owner != nil, err)
			}
			// After lands inside the victim's first block of more than one arc
			// past its first two blocks.
			var after, start int64 = -1, 0
			for i, n := range clean.sizes[victim] {
				if i >= 2 && n > 1 {
					after = start + int64(n)/2
					break
				}
				start += int64(n)
			}
			if after < 0 {
				t.Fatalf("r=%d owner %v: rank %d has no block to crash inside: %v", r, owner != nil, victim, clean.sizes[victim])
			}
			for _, shape := range []string{"store", "block", "tile"} {
				cell := fmt.Sprintf("r=%d owner %v %s-only, crash after %d", r, owner != nil, shape, after)
				sink, st, err := run(shape, &FaultPlan{Crashes: []CrashSpec{{Rank: victim, Point: FaultMidExpansion, After: after}}})
				if err != nil {
					t.Fatalf("%s: %v", cell, err)
				}
				if st.RecoveredRuns != 1 {
					t.Fatalf("%s: RecoveredRuns = %d, want the crash to have fired and been recovered", cell, st.RecoveredRuns)
				}
				for rk, arcs := range byRank(sink.got, owner) {
					assertSameOrder(t, fmt.Sprintf("%s, rank %d", cell, rk), arcs, want[rk])
				}
				if gen, stored := st.EdgesGenerated, int64(len(serial)); gen != stored {
					t.Fatalf("%s: generated %d arcs, want the product's %d: a replay generated again what was stored", cell, gen, stored)
				}
				if !slices.Equal(st.PerRankGenerated, st.PerRankStored) {
					t.Fatalf("%s: per-rank generated %v, stored %v", cell, st.PerRankGenerated, st.PerRankStored)
				}
				if st.OutstandingBufs != 0 {
					t.Fatalf("%s: %d buffers still checked out", cell, st.OutstandingBufs)
				}
			}
		}
	}
}
