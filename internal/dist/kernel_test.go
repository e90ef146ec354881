package dist

// Cross-path equivalence for the blocked expansion/routing kernel: every
// engine configuration — 1D and 2D plans, routed (hash and block owner
// maps) and unrouted sinks, factors with and without full self loops,
// batch sizes down to 1 — must emit exactly the edge multiset of the
// per-edge reference generator core.StreamProduct. The kernel reorders
// work (blocks, radix partitions, batch flushes) but may never change
// what is generated; this test is the property pinning that.

import (
	"context"
	"fmt"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// referenceArcs collects the product edge multiset from the per-edge
// reference path the paper's Sec. II describes and the kernel replaced.
func referenceArcs(a, b *graph.Graph) []graph.Edge {
	var arcs []graph.Edge
	core.StreamProduct(a, b, func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	})
	return arcs
}

// TestKernelEquivalence sweeps the engine matrix against StreamProduct.
// Batch sizes include 1 (every edge flushes — maximal message count,
// every tile-boundary and threshold path taken) and small odd values
// that misalign batches with block and tile sizes.
func TestKernelEquivalence(t *testing.T) {
	factors := []struct {
		name string
		a, b *graph.Graph
	}{
		{"er_x_ba", gen.ER(7, 0.5, 401), gen.PrefAttach(6, 2, 402)},
		{"loops_x_rmat", gen.ER(5, 0.6, 403).WithFullSelfLoops(), gen.MustRMAT(gen.Graph500Params(3, 404))},
		{"rmat_x_loops", gen.MustRMAT(gen.Graph500Params(3, 405)), gen.PrefAttach(5, 2, 406).WithFullSelfLoops()},
	}
	owners := []struct {
		name  string
		owner func(nC int64) Owner
	}{
		{"unrouted", func(int64) Owner { return nil }},
		{"byEdge", func(int64) Owner { return OwnerByEdge }},
		{"blockBound", func(nC int64) Owner { return BlockOwner{NC: nC} }},
	}
	for _, f := range factors {
		want, err := graph.New(f.a.NumVertices()*f.b.NumVertices(), referenceArcs(f.a, f.b))
		if err != nil {
			t.Fatal(err)
		}
		for _, twoD := range []bool{false, true} {
			for _, o := range owners {
				for _, batch := range []int{1, 3, 5, DefaultBatchSize} {
					f, twoD, o, batch := f, twoD, o, batch
					name := fmt.Sprintf("%s_%s_%s_batch%d", f.name,
						map[bool]string{false: "1d", true: "2d"}[twoD], o.name, batch)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						const r = 3
						plan, err := planForChain(mustChain(f.a, f.b), r, twoD)
						if err != nil {
							t.Fatal(err)
						}
						ms := NewMemorySink(r)
						cfg := Config{Plan: plan, Sink: ms, BatchSize: batch,
							Owner: o.owner(plan.NC)}
						if _, err := Run(context.Background(), cfg); err != nil {
							t.Fatal(err)
						}
						assertExact(t, plan.NC, mergedArcs(ms), want)
					})
				}
			}
		}
	}
}

// TestRecoverKernelOddBatchSoak replays the supervised-recovery contract
// on the blocked kernel with batch sizes that misalign with tiles and
// blocks (including 1): a mid-expansion crash plus a permanently lost
// batch must still yield the exact reference edge set, because prefix
// deduplication counts edges — it must hold for any batch framing of the
// per-(tile, destination) substreams.
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
				rank, work := plannedWork(plan)
				ms := NewMemorySink(r)
				var st Stats
				runErr := runWithWatchdog(t, chaosWatchdog, func() error {
					var err error
					st, err = Run(context.Background(), Config{
						Plan: plan, Owner: OwnerByEdge, Sink: ms, BatchSize: batch,
						Faults: &FaultPlan{
							Seed:      int64(420 + batch),
							Crashes:   []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: work / 2}},
							LoseAfter: 1, LoseDeliveries: 1,
						},
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
