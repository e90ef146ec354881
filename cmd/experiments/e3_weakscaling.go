package main

import (
	"context"
	"fmt"
	"io"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// runWeakScaling reproduces Rem. 1: with only A's edges distributed, at
// most |arcs_A| ranks can do useful work; the 2D decomposition keeps up
// to |arcs_A|·|arcs_B| ranks busy. On a single machine this is exposed as
// effective parallelism (ranks with nonzero work) and the max per-rank
// expansion work relative to ideal.
func runWeakScaling(w io.Writer) error {
	// A deliberately tiny A (few arcs) against a larger B: the 1D wall.
	a := gen.Ring(16) // 32 arcs
	b := gen.MustRMAT(gen.Graph500Params(7, 303))
	fmt.Fprintf(w, "A: %v (%d arcs — the 1D wall), B: %v (%d arcs).\n\n",
		a, a.NumArcs(), b, b.NumArcs())

	var rows [][]string
	for _, r := range []int{1, 8, 32, 64, 128, 256} {
		e1 := dist.EffectiveParallelism1D(a, r)
		e2 := dist.EffectiveParallelism2D(a, b, r)
		// Max per-rank work under each decomposition.
		work1 := maxRankWork1D(a.NumArcs(), b.NumArcs(), r)
		work2 := maxRankWork2D(a.NumArcs(), b.NumArcs(), r)
		ideal := a.NumArcs() * b.NumArcs() / int64(r)
		rows = append(rows, []string{
			fmt.Sprint(r), fmtInt(ideal),
			fmt.Sprint(e1), fmtInt(work1),
			fmt.Sprint(e2), fmtInt(work2),
		})
	}
	table(w, []string{"R", "ideal work/rank", "busy ranks (1D)", "max work/rank (1D)", "busy ranks (2D)", "max work/rank (2D)"}, rows)
	fmt.Fprintf(w, "\nExpected shape (paper's Rem. 1): 1D busy ranks plateau at |arcs_A| = %d\n", a.NumArcs())
	fmt.Fprintf(w, "so 1D max work/rank stops shrinking, while 2D keeps scaling toward\n")
	fmt.Fprintf(w, "O(|E_C|) ranks. Verified against actual count-only engine runs:\n\n")

	ch, err := core.NewChain(a, b)
	if err != nil {
		return err
	}
	var rows2 [][]string
	for _, r := range []int{32, 128} {
		for _, twoD := range []bool{false, true} {
			// Run the engine's count-only sink directly so the measured
			// per-rank expansion counters confirm the predicted skew.
			plan, err := dist.PlanChain1D(ch, r)
			if twoD {
				plan, err = dist.PlanChain2D(ch, r)
			}
			if err != nil {
				return err
			}
			sink := &dist.CountSink{}
			st, err := dist.Run(context.Background(), dist.Config{Plan: plan, Sink: sink})
			if err != nil {
				return err
			}
			mode := "1D"
			if twoD {
				mode = "2D"
			}
			rows2 = append(rows2, []string{
				fmt.Sprint(r), mode, fmtInt(sink.Total()),
				fmtInt(st.MaxGenerated()),
				check(sink.Total() == a.NumArcs()*b.NumArcs()),
			})
		}
	}
	table(w, []string{"R", "mode", "edges generated", "measured max work/rank", "complete"}, rows2)

	// Factor chains: for A⊗T^{⊗(k-1)} the head A stays the rank-split
	// dimension, so the 1D wall is |arcs_A| at every depth k while the
	// lazy tail fold multiplies per-rank work by |arcs_T| per level.
	tail := gen.PrefAttach(6, 2, 305)
	const rChain = 64
	fmt.Fprintf(w, "\nChain depth: A ⊗ T^(k-1) with T: %v (%d arcs). Busy ranks stay capped\n",
		tail, tail.NumArcs())
	fmt.Fprintf(w, "at |arcs_A| = %d independent of k (R = %d):\n\n", a.NumArcs(), rChain)

	var rows3 [][]string
	for k := 2; k <= 4; k++ {
		factors := []*graph.Graph{a}
		for j := 1; j < k; j++ {
			factors = append(factors, tail)
		}
		ch, err := core.NewChain(factors...)
		if err != nil {
			return err
		}
		wantArcs, err := ch.NumArcs()
		if err != nil {
			return err
		}
		plan, err := dist.PlanChain1D(ch, rChain)
		if err != nil {
			return err
		}
		sink := &dist.CountSink{}
		st, err := dist.Run(context.Background(), dist.Config{Plan: plan, Sink: sink})
		if err != nil {
			return err
		}
		rows3 = append(rows3, []string{
			fmt.Sprint(k), fmtInt(wantArcs),
			fmt.Sprint(dist.EffectiveParallelism1D(a, rChain)),
			fmtInt(st.MaxGenerated()),
			check(sink.Total() == wantArcs),
		})
	}
	table(w, []string{"k", "arcs", "busy ranks (1D)", "measured max work/rank", "complete"}, rows3)
	return nil
}

// maxRankWork1D returns the largest per-rank expansion work under 1D
// block partitioning of A's arcs: ceil(arcsA/R)·arcsB.
func maxRankWork1D(arcsA, arcsB int64, r int) int64 {
	per := (arcsA + int64(r) - 1) / int64(r)
	return per * arcsB
}

// maxRankWork2D returns the largest per-rank work under the Rem. 1 grid
// with round-robin tile assignment.
func maxRankWork2D(arcsA, arcsB int64, r int) int64 {
	grid := dist.NewGrid2D(r)
	perA := (arcsA + int64(grid.RHalf) - 1) / int64(grid.RHalf)
	perB := (arcsB + int64(grid.Q) - 1) / int64(grid.Q)
	tilesPerRank := (grid.Tiles() + r - 1) / r
	return perA * perB * int64(tilesPerRank)
}
