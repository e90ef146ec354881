// Benchmarks regenerating the performance-relevant shape of every paper
// artifact (deliverable d). One benchmark (or formula-vs-oracle pair) per
// table/figure; experiment ids match DESIGN.md §4 and cmd/experiments.
//
// Run with: go test -bench=. -benchmem
package kronlab_test

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/havoq"
	"kronlab/internal/rejection"
)

// fixtures are shared across benchmarks and built once.
var (
	fixOnce sync.Once

	benchA    *graph.Graph // RMAT scale-6 factor
	benchB    *graph.Graph // RMAT scale-6 factor
	benchCh   *core.Chain  // A⊗B as the generator takes it
	benchFacA *groundtruth.Factor
	benchFacB *groundtruth.Factor

	benchC      *graph.Graph // (A+I)⊗(B+I), materialized oracle target
	benchCPlain *graph.Graph // A⊗B

	gnut    *graph.Graph // gnutella-like factor with loops
	gnutFac *groundtruth.Factor

	sbmG     *graph.Graph
	sbmParts [][]int64
	sbmFac   *groundtruth.Factor
	sbmStats []analytics.CommunityStats
	sbmC     *graph.Graph
)

func fixtures(b *testing.B) {
	b.Helper()
	fixOnce.Do(func() {
		benchA = gen.MustRMAT(gen.Graph500Params(5, 10))
		benchB = gen.MustRMAT(gen.Graph500Params(5, 11))
		benchFacA = groundtruth.NewFactor(benchA)
		benchFacB = groundtruth.NewFactor(benchB)
		var err error
		benchCh, err = core.NewChain(benchA, benchB)
		if err != nil {
			panic(err)
		}
		benchCPlain, err = core.Product(benchA, benchB)
		if err != nil {
			panic(err)
		}
		benchC, err = core.ProductWithSelfLoops(benchA, benchB)
		if err != nil {
			panic(err)
		}
		gnut = gen.GnutellaLike(2019).WithFullSelfLoops()
		gnutFac = groundtruth.NewFactor(gnut)
		gnutFac.EnsureDistances()

		sbmG, sbmParts = gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(4, 30), PIn: 0.35, POut: 0.02, Seed: 5})
		sbmFac = groundtruth.NewFactor(sbmG)
		sbmStats = analytics.Communities(sbmG, sbmParts)
		sbmC, err = core.ProductWithSelfLoops(sbmG, sbmG)
		if err != nil {
			panic(err)
		}
	})
}

// --- E1: Sec. I scaling-law table ---

func BenchmarkE1ScalingLaws(b *testing.B) {
	a := gen.ER(10, 0.4, 1)
	bb := gen.ER(10, 0.4, 2)
	pa := [][]int64{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fa, fb := groundtruth.NewFactor(a), groundtruth.NewFactor(bb)
		if _, err := groundtruth.ScalingLaws(fa, fb, pa, pa); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2: Sec. III generator throughput (the CORAL2 edges/s row) ---

func BenchmarkE2Generate1D(b *testing.B) {
	fixtures(b)
	for _, r := range []int{1, 4, 16} {
		b.Run(rankName(r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dist.GenerateChain(benchCh, r, nil, false)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Stats.EdgesGenerated * 16)
			}
		})
	}
}

func BenchmarkE2Generate2D(b *testing.B) {
	fixtures(b)
	for _, r := range []int{4, 16} {
		b.Run(rankName(r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dist.GenerateChain(benchCh, r, nil, true)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Stats.EdgesGenerated * 16)
			}
		})
	}
}

// BenchmarkE2GenerateChain drives the generator through the kernel at
// increasing depth: a one-factor tail at K=2, a two-factor lazy fold at
// K=3 — the same core.TailCursor loop. The allocguard budget on this
// benchmark pins it to zero allocations per arc at either depth.
func BenchmarkE2GenerateChain(b *testing.B) {
	base := gen.PrefAttach(16, 2, 21)
	for _, k := range []int{2, 3} {
		ch, err := core.PowerChain(base, k)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("K=%d/R=4", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := dist.GenerateChain(ch, 4, nil, false)
				if err != nil {
					b.Fatal(err)
				}
				b.SetBytes(res.Stats.EdgesGenerated * 16)
			}
		})
	}
}

// --- Multicore saturation: edges/sec at R ranks × P cores ---

// BenchmarkThroughputSweep is the repo's headline number: sustained
// edges/sec of GenerateChain into memory, swept over cluster size R and
// GOMAXPROCS P. It places by source, so every rank generates what it
// stores and nothing is routed: on multicore hardware the R=16 rows
// should scale with P until the machine saturates, bounded by the owner
// map's load skew. P values above runtime.NumCPU() still run (the scheduler
// timeslices), so runs on narrow machines keep every row — flat, but
// comparable.
func BenchmarkThroughputSweep(b *testing.B) {
	fixtures(b)
	edges := benchA.NumArcs() * benchB.NumArcs()
	procs := []int{1, 2, 4}
	if n := runtime.NumCPU(); n > procs[len(procs)-1] {
		procs = append(procs, n)
	}
	for _, r := range []int{1, 4, 16} {
		for _, p := range procs {
			b.Run(fmt.Sprintf("R=%d/P=%d", r, p), func(b *testing.B) {
				// Restored inside the sub-benchmark: the testing package
				// checks GOMAXPROCS as each one returns.
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
				b.SetBytes(edges * 16)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := dist.GenerateChain(benchCh, r, nil, false); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(edges)*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
			})
		}
	}
}

func BenchmarkE2SerialProduct(b *testing.B) {
	fixtures(b)
	for i := 0; i < b.N; i++ {
		if _, err := core.Product(benchA, benchB); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: Rem. 1 weak scaling — expansion-only work at the 1D wall ---

func BenchmarkE3WeakScaling(b *testing.B) {
	tiny := gen.Ring(16) // 32 arcs: R beyond 32 starves 1D ranks
	big := gen.MustRMAT(gen.Graph500Params(6, 12))
	ch, err := core.NewChain(tiny, big)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		plan func(*core.Chain, int) (dist.Plan, error)
	}{{"1D", dist.PlanChain1D}, {"2D", dist.PlanChain2D}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				plan, err := mode.plan(ch, 64)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dist.Run(context.Background(), dist.Config{Plan: plan, Sink: &dist.CountSink{}}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- E4: Cor. 1/2 triangle ground truth vs exact counting ---

func BenchmarkE4TriangleGroundTruth(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := groundtruth.VertexTrianglesFullLoops(benchFacA, benchFacB)
		if len(v) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE4TriangleExact(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts := analytics.Triangles(benchC)
		if ts.Global == 0 {
			b.Fatal("no triangles")
		}
	}
}

func BenchmarkE4TriangleDistributed(b *testing.B) {
	fixtures(b)
	dg, err := havoq.Build(benchCPlain, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dg.Triangles()
	}
}

// --- E5: Thm. 1/2 clustering laws ---

func BenchmarkE5ClusteringGroundTruth(b *testing.B) {
	fixtures(b)
	n := benchFacA.N() * benchFacB.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s float64
		for p := int64(0); p < n; p += 7 {
			s += groundtruth.VertexClusteringAt(benchFacA, benchFacB, p)
		}
	}
}

func BenchmarkE5ClusteringExact(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cc := analytics.VertexClustering(benchCPlain); len(cc) == 0 {
			b.Fatal("empty")
		}
	}
}

// --- E6: Fig. 1 eccentricity — formula vs BFS sweep ---

func BenchmarkE6EccentricityFormula(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Full Fig. 1 histogram for the 40M-vertex product from factor data.
		h := groundtruth.EccentricityHistogram(gnutFac, gnutFac)
		if len(h) == 0 {
			b.Fatal("empty histogram")
		}
	}
}

// eccProduct builds a small connected looped product for the BFS-based
// eccentricity comparators (brute force is O(n·m) — the very cost the
// formula avoids, so the oracle side runs on a reduced product).
func eccProduct(b *testing.B) *graph.Graph {
	b.Helper()
	small, _ := gen.PrefAttach(40, 2, 9).LargestComponent()
	sl := small.WithFullSelfLoops()
	c, err := core.Product(sl, sl)
	if err != nil {
		b.Fatal(err)
	}
	return c
}

func BenchmarkE6EccentricityBFS(b *testing.B) {
	c := eccProduct(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if e := analytics.Eccentricities(c); len(e) == 0 {
			b.Fatal("empty")
		}
	}
}

func BenchmarkE6EccentricityDistributed(b *testing.B) {
	dg, err := havoq.Build(eccProduct(b), 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dg.ExactEccentricities(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: Thm. 4 closeness — direct vs compressed ---

func BenchmarkE7ClosenessDirect(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groundtruth.ClosenessAt(gnutFac, gnutFac, int64(i%1000)*4001)
	}
}

func BenchmarkE7ClosenessCompressed(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groundtruth.ClosenessCompressedAt(gnutFac, gnutFac, int64(i%1000)*4001)
	}
}

// --- E8: Cor. 5 diameter control ---

func BenchmarkE8DiameterGroundTruth(b *testing.B) {
	ring := gen.Ring(64).WithFullSelfLoops()
	fr := groundtruth.NewFactor(ring)
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		groundtruth.Diameter(fr, gnutFac)
	}
}

// --- E9: Fig. 2 community densities — Thm. 6 vs counting on product ---

func BenchmarkE9CommunityGroundTruth(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := groundtruth.CommunitiesKron(sbmFac, sbmFac, sbmParts, sbmParts, sbmStats, sbmStats)
		if len(s) != len(sbmParts)*len(sbmParts) {
			b.Fatal("wrong count")
		}
	}
}

func BenchmarkE9CommunityExact(b *testing.B) {
	fixtures(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for ai := range sbmParts {
			for bi := range sbmParts {
				sc := core.KronSet(sbmParts[ai], sbmParts[bi], sbmFac.N())
				analytics.Community(sbmC, sc)
			}
		}
	}
}

// --- E10: Ex. 1 clique products ---

func BenchmarkE10CliqueProduct(b *testing.B) {
	a := gen.DisjointCliques(4, 6)
	bb := gen.DisjointCliques(3, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ProductWithSelfLoops(a, bb); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E11: Def. 8 edge rejection ---

func BenchmarkE11RejectionThin(b *testing.B) {
	fixtures(b)
	h := rejection.NewHasher(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rejection.Thin(benchCPlain, h, 0.95)
	}
}

func BenchmarkE11RejectionFamily(b *testing.B) {
	fixtures(b)
	h := rejection.NewHasher(1)
	levels := []float64{1, 0.99, 0.95, 0.9}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rejection.Family(benchCPlain, h, levels)
	}
}

func rankName(r int) string {
	return fmt.Sprintf("R=%d", r)
}
