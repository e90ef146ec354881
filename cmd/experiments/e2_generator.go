package main

import (
	"fmt"
	"io"
	"os"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
)

// runGenerator reproduces the Sec. III generator cost model: generation
// time O(|E_A|·|E_B|/R), per-rank storage O(|E_A|/R + |E_B| + owned), and
// what storing by an owner map costs, swept over rank counts under both
// placements: owner-side generation (a map of the source alone — the
// default; each rank generates only the edges it must store, Sec. III's
// CSR remark) and routing (a map that reads both endpoints). The paper's
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

	for _, place := range []struct {
		title string
		owner dist.OwnerFunc
		law   string
	}{
		{"Owner-side generation (`OwnerBySource`, the default: a rank generates what it stores)", nil,
			"Expected shape: edges generated is constant (= |arcs_A|·|arcs_B|) and every\n" +
				"rank generates exactly what it stores — gen skew is the owner map's storage\n" +
				"skew, ≈ 1 at every R since the map keeps its hash's high bits (1.39 / 1.90 /\n" +
				"2.48 / 3.19 at R = 2 / 4 / 8 / 16 while it kept the low ones; what is left is\n" +
				"the hubs') — with nothing routed: 0 edges, 0 bytes, at every R.\n\n"},
		{"Routing (`OwnerByEdge`: the owner reads the target too, so edges cross the exchange)", dist.OwnerByEdge,
			"Expected shape: edges generated is constant, per-rank work is the even head\n" +
				"split (gen skew ≈ 1), max stored/rank stays within a percent of ideal (the\n" +
				"map spreads even a hub's arcs), and routed volume approaches (1 − 1/R) of\n" +
				"generated edges under a hashed owner map.\n\n"},
	} {
		var rows [][]string
		for _, r := range []int{1, 2, 4, 8, 16} {
			start := time.Now()
			res, err := dist.GenerateChain(ch, r, place.owner, false)
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
				fmtInt(st.EdgesRouted),
				fmtInt(st.BytesSent),
				fmt.Sprint(st.MaxInboxDepth),
				fmt.Sprintf("%.1fM/s", float64(st.EdgesGenerated)/elapsed.Seconds()/1e6),
			})
		}
		fmt.Fprintf(w, "%s:\n\n", place.title)
		table(w, []string{"R", "edges generated", "ideal edges/rank", "gen skew max/ideal", "max stored/rank", "edges routed", "bytes sent", "max inbox", "throughput"}, rows)
		fmt.Fprintf(w, "\n%s", place.law)
	}

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
