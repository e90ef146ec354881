package main

import (
	"fmt"
	"io"
	"math/bits"
	"os"
	"slices"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
)

// runGenerator reproduces the Sec. III generator cost model: generation
// time O(|E_A|·|E_B|/R), per-rank storage O(|E_A|/R + |E_B| + owned), and
// what storing by an owner map costs, swept over rank counts: owner-side
// generation (a map of the source alone; each rank generates only the
// edges it must store, Sec. III's CSR remark), run, and routing (a map that
// reads both endpoints), counted — the engine no longer routes. The paper's
// CORAL2 anecdote (trillion edges on 1.57M cores) becomes an edges/second
// throughput row at laptop scale — the shape to check is that work per
// rank, not wall clock on one OS thread, scales as 1/R.
func runGenerator(w io.Writer) error {
	a := gen.MustRMAT(gen.Graph500Params(7, 101))
	b := gen.MustRMAT(gen.Graph500Params(7, 202))
	fmt.Fprintf(w, "Factors: two Graph500 RMAT scale-7 graphs (paper used two scale-18\n")
	fmt.Fprintf(w, "Graph500 graphs for the trillion-edge CORAL2 run).\n")
	fmt.Fprintf(w, "A: %v, B: %v, |arcs_C| = %s.\n\n", a, b, fmtInt(a.NumArcs()*b.NumArcs()))
	ch, err := core.NewChain(a, b)
	if err != nil {
		return err
	}

	rs := []int{1, 2, 4, 8, 16}
	var rows [][]string
	for _, r := range rs {
		start := time.Now()
		res, err := dist.GenerateChain(ch, r, nil, false)
		if err != nil {
			return err
		}
		elapsed := time.Since(start)
		st := res.Stats
		// Ideal per-rank expansion work vs the engine's measured per-rank
		// counters: the max/ideal skew is the Rem. 1 load-balance signal.
		ideal := st.EdgesGenerated / int64(r)
		skew := 1.0
		if ideal > 0 {
			skew = float64(st.MaxGenerated()) / float64(ideal)
		}
		rows = append(rows, []string{
			fmt.Sprint(r),
			fmtInt(st.EdgesGenerated),
			fmtInt(ideal),
			fmt.Sprintf("%.2f", skew),
			fmtInt(res.MaxRankStorage()),
			fmt.Sprintf("%.1fM/s", float64(st.EdgesGenerated)/elapsed.Seconds()/1e6),
		})
	}
	fmt.Fprintf(w, "Owner-side generation (`OwnerBySource`, the default: a rank generates what it stores):\n\n")
	table(w, []string{"R", "edges generated", "ideal edges/rank", "gen skew max/ideal", "max stored/rank", "throughput"}, rows)
	fmt.Fprintf(w, "\nExpected shape: edges generated is constant (= |arcs_A|·|arcs_B|) and every\n"+
		"rank generates exactly what it stores — gen skew is the owner map's storage\n"+
		"skew, ≈ 1 at every R since the map keeps its hashes' high bits (1.39 / 1.90 /\n"+
		"2.48 / 3.19 at R = 2 / 4 / 8 / 16 while it kept the low ones; what is left is\n"+
		"the hubs'; summing the hash over the source's bits rather than hashing the\n"+
		"whole source moved max stored/rank by under a percent) — and no edge leaves\n"+
		"the rank that generates it.\n\n")

	// The volume law of routing, counted in one pass over the product per R:
	// under 1D a rank produces the arcs of its PartitionArcs slice of A's
	// arcs, and a map of both endpoints would ship every arc it places
	// elsewhere, 16 bytes each.
	rows = nil
	for _, r := range rs {
		var producer []int // by head arc
		for p, part := range dist.PartitionArcs(a.ArcSlice(), r) {
			for range part {
				producer = append(producer, p)
			}
		}
		stored := make([]int64, r)
		var routed, i int64
		ch.Arcs(func(u, v int64) bool {
			to := byEdge(u, v, r)
			stored[to]++
			if to != producer[i/b.NumArcs()] {
				routed++
			}
			i++
			return true
		})
		rows = append(rows, []string{fmt.Sprint(r), fmtInt(routed), fmtInt(16 * routed), fmtInt(slices.Max(stored))})
	}
	fmt.Fprintf(w, "Routing by both endpoints (`OwnerByEdge`, retired; counted, not run):\n\n")
	table(w, []string{"R", "edges routed", "bytes sent", "max stored/rank"}, rows)
	fmt.Fprintf(w, "\nExpected shape: max stored/rank stays within a percent of ideal (the map\n"+
		"spreads even a hub's arcs), and routed volume approaches (1 − 1/R) of\n"+
		"generated edges under a hashed owner map.\n\n")

	// Generation straight to a sharded on-disk store (the "if edges are
	// being stored" path of Sec. III) — O(batch) memory per rank, under
	// both decompositions through the same engine.
	for _, mode := range []struct {
		name string
		twoD bool
	}{{"1D", false}, {"2D", true}} {
		dir, err := os.MkdirTemp("", "kron-e2-store")
		if err != nil {
			return err
		}
		start := time.Now()
		st, stats, err := dist.GenerateChainToStore(ch, 8, dir, mode.twoD)
		if err != nil {
			os.RemoveAll(dir)
			return err
		}
		elapsed := time.Since(start)
		fmt.Fprintf(w, "%s generate-to-disk on 8 ranks: %s edges streamed to %d shards in %v\n",
			mode.name, fmtInt(st.TotalEdges()), st.Shards(), elapsed.Round(time.Millisecond))
		fmt.Fprintf(w, "(%.1fM edges/s; max stored/rank %s; complete: %s)\n",
			float64(st.TotalEdges())/elapsed.Seconds()/1e6,
			fmtInt(stats.MaxStored()),
			check(st.TotalEdges() == stats.EdgesGenerated))
		os.RemoveAll(dir)
	}
	return nil
}

// byEdge is the retired OwnerByEdge map: the two endpoints' products folded
// through one xor-shift-multiply round, reduced by the high word.
func byEdge(u, v int64, r int) int {
	h := uint64(u)*0x9e3779b97f4a7c15 ^ (uint64(v)*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9)
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	hi, _ := bits.Mul64(h, uint64(r))
	return int(hi)
}
