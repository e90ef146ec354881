package dist

// Cross-path equivalence for the blocked expansion kernel: every engine
// configuration — 1D and 2D plans, source owners (hash, block, and one that
// starves a rank) and no owner, factors with and without full self loops,
// one-, two- and three-factor chains, whole streams and windows, batch
// sizes down to 1 — must emit exactly the edge multiset of the per-edge
// reference generator. The kernel reorders work (blocks, owned-row picks)
// but may never change what is generated or where it is stored; this test
// is the property pinning that.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// referenceArcs collects the chain's arc stream from the serial per-edge
// reference, core.Chain.Arcs: at k = 2 the nested loop the paper's
// Sec. II describes and the kernel replaced.
func referenceArcs(ch *core.Chain) []graph.Edge {
	var arcs []graph.Edge
	ch.Arcs(func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	})
	return arcs
}

// midRunWindow returns a window [lo, hi) of the serial stream whose two
// ends both fall strictly inside a run of equal sources, so a plan sliced
// to it starts (Skip) and stops (Take) in the middle of a CSR row.
func midRunWindow(t *testing.T, arcs []graph.Edge) (lo, hi int) {
	t.Helper()
	inRun := func(i int) bool { return arcs[i-1].U == arcs[i].U }
	lo, hi = len(arcs)/5, 4*len(arcs)/5
	for lo < hi && !inRun(lo) {
		lo++
	}
	for hi > lo && !inRun(hi) {
		hi--
	}
	if lo >= hi {
		t.Fatal("no window with both ends inside a run; pick denser factors")
	}
	return lo, hi
}

// TestKernelEquivalence sweeps the engine matrix against the serial
// reference: every arc exactly once (multiset equality, not set
// equality) and, under an owner, on the rank the owner map names. Batch
// sizes include 1 (every edge its own block — every tile-boundary and
// threshold path taken) and small odd values that misalign blocks with
// tiles and source runs. The owners are a map of the source as a type
// (BlockOwner), OwnerBySource as the plain OwnerFunc value every caller
// passes, and a BlockOwner of 16 × NC sources, under which rank 0 owns every
// row and the others none (in the cells still named byEdge after the map
// of both endpoints they ran before owners had to read the source alone).
// The windowed cases slice the
// 1D plan — whose stream order is the serial order — so that Skip and
// Take both cut a run; on the two-factor chain that is
// core.TailCursor.SeekTo over a one-factor tail.
func TestKernelEquivalence(t *testing.T) {
	chains := []struct {
		name   string
		ch     *core.Chain
		window bool
	}{
		{"er_x_ba", mustChain(gen.ER(7, 0.5, 401), gen.PrefAttach(6, 2, 402)), false},
		{"loops_x_rmat", mustChain(gen.ER(5, 0.6, 403).WithFullSelfLoops(), gen.MustRMAT(gen.Graph500Params(3, 404))), false},
		{"rmat_x_loops", mustChain(gen.MustRMAT(gen.Graph500Params(3, 405)), gen.PrefAttach(5, 2, 406).WithFullSelfLoops()), false},
		{"k3", mustChain(gen.ER(4, 0.6, 407), gen.PrefAttach(4, 2, 408), gen.ER(3, 0.7, 409).WithFullSelfLoops()), false},
		{"k1", mustChain(gen.MustRMAT(gen.Graph500Params(4, 410))), false}, // head × identityTail
		{"window", mustChain(gen.ER(7, 0.5, 401), gen.PrefAttach(6, 2, 402)), true},
		{"k3_window", mustChain(gen.ER(4, 0.6, 407), gen.PrefAttach(4, 2, 408), gen.ER(3, 0.7, 409).WithFullSelfLoops()), true},
	}
	owners := []struct {
		name  string
		owner func(nC int64) Owner
	}{
		{"unrouted", func(int64) Owner { return nil }},
		{"byEdge", func(nC int64) Owner { return BlockOwner{NC: 16 * nC} }},
		{"blockBound", func(nC int64) Owner { return BlockOwner{NC: nC} }},
		{"bySource", func(int64) Owner { return OwnerBySource }},
	}
	for _, c := range chains {
		want := referenceArcs(c.ch)
		lo, hi := 0, len(want)
		if c.window {
			lo, hi = midRunWindow(t, want)
		}
		want = sortedArcs(want[lo:hi])
		for _, twoD := range []bool{false, true} {
			if c.window && twoD {
				continue // a 2D plan streams in tile-grid order, not serial order
			}
			for _, o := range owners {
				for _, batch := range []int{1, 3, 5, DefaultBatchSize} {
					c, twoD, o, batch := c, twoD, o, batch
					name := fmt.Sprintf("%s_%s_%s_batch%d", c.name,
						map[bool]string{false: "1d", true: "2d"}[twoD], o.name, batch)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						const r = 3
						plan, err := planForChain(c.ch, r, twoD)
						if err != nil {
							t.Fatal(err)
						}
						if c.window {
							if plan, err = plan.Slice(int64(lo), int64(hi-lo)); err != nil {
								t.Fatal(err)
							}
						}
						ms := NewMemorySink(r)
						cfg := Config{Plan: plan, Sink: ms, BatchSize: batch,
							Owner: o.owner(plan.NC)}
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatal(err)
						}
						assertSameOrder(t, "sorted arcs", sortedArcs(mergedArcs(ms)), want)
						if cfg.Owner != nil {
							assertPlacement(t, ms, cfg.Owner, plan)
						}
					})
				}
			}
		}
	}
}

// assertPlacement checks that every arc an owner run stored sits on the
// rank the owner map names.
func assertPlacement(t *testing.T, ms *MemorySink, owner Owner, plan Plan) {
	t.Helper()
	place := placer(owner, plan)
	for rank, arcs := range ms.PerRank {
		for _, e := range arcs {
			if to := place(e.U); to != rank {
				t.Fatalf("arc %v stored on rank %d, owner says %d", e, rank, to)
			}
		}
	}
}

// TestRecoverKernelOddBatchSoak replays the supervised-recovery contract
// on the blocked kernel with batch sizes that misalign with tiles and
// blocks (including 1): a mid-expansion crash of the busiest owner must
// still yield the exact reference edge set, because the stored prefix a
// replay resumes at counts edges — it must hold for any block framing of
// the per-(tile, rank) substreams.
func TestRecoverKernelOddBatchSoak(t *testing.T) {
	a := gen.ER(7, 0.5, 411).WithFullSelfLoops()
	b := gen.PrefAttach(6, 2, 412)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, batch := range []int{1, 3, 7} {
		for _, twoD := range []bool{false, true} {
			batch, twoD := batch, twoD
			name := fmt.Sprintf("batch%d_%s", batch, map[bool]string{false: "1d", true: "2d"}[twoD])
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const r = 3
				plan, err := planForChain(mustChain(a, b), r, twoD)
				if err != nil {
					t.Fatal(err)
				}
				rank, work := busiestOwner(want, OwnerBySource, plan)
				ms := NewMemorySink(r)
				var st Stats
				runErr := runWithWatchdog(t, chaosWatchdog, func() error {
					var err error
					st, err = Run(context.Background(), Config{
						Plan: plan, Owner: OwnerBySource, Sink: ms, BatchSize: batch,
						Faults:   &FaultPlan{Crashes: []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: work / 2}}},
						Recovery: Recovery{MaxRetries: 3, Backoff: time.Millisecond},
					})
					return err
				})
				if runErr != nil {
					t.Fatalf("supervised run failed despite retry budget: %v", runErr)
				}
				assertExact(t, plan.NC, mergedArcs(ms), want)
				if st.TotalRetries() == 0 {
					t.Fatal("faults injected but no retry recorded")
				}
				if st.OutstandingBufs != 0 {
					t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
				}
			})
		}
	}
}
