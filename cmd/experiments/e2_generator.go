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
// the communication volume of owner routing, swept over rank counts. The
// paper's CORAL2 anecdote (trillion edges on 1.57M cores) becomes an
// edges/second throughput row at laptop scale — the shape to check is
// that work per rank, not wall clock on one OS thread, scales as 1/R.
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

	var rows [][]string
	for _, r := range []int{1, 2, 4, 8, 16} {
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
			fmtInt(st.EdgesRouted),
			fmtInt(st.BytesSent),
			fmt.Sprint(st.MaxInboxDepth),
			fmt.Sprintf("%.1fM/s", float64(st.EdgesGenerated)/elapsed.Seconds()/1e6),
		})
	}
	table(w, []string{"R", "edges generated", "ideal edges/rank", "gen skew max/ideal", "max stored/rank", "edges routed", "bytes sent", "max inbox", "throughput"}, rows)
	fmt.Fprintf(w, "\nExpected shape: edges generated is constant (= |arcs_A|·|arcs_B|),\n")
	fmt.Fprintf(w, "ideal per-rank work falls as 1/R, and routed volume approaches\n")
	fmt.Fprintf(w, "(1 − 1/R) of generated edges under a hashed owner map.\n\n")

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
