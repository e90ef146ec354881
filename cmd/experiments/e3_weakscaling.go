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
// the plans' busy ranks (ranks with planned arcs) and max per-rank
// expansion work relative to ideal, each checked against an engine run:
// at every R the busiest 2D rank is within 1 % of the ideal share and
// never above 1D's.
func runWeakScaling(w io.Writer) error {
	// A deliberately tiny A (few arcs) against a larger B: the 1D wall.
	a := gen.Ring(16) // 32 arcs
	b := gen.MustRMAT(gen.Graph500Params(7, 303))
	fmt.Fprintf(w, "A: %v (%d arcs — the 1D wall), B: %v (%d arcs).\n\n",
		a, a.NumArcs(), b, b.NumArcs())
	ch, err := core.NewChain(a, b)
	if err != nil {
		return err
	}

	arcs := a.NumArcs() * b.NumArcs()
	var rows [][]string
	for _, r := range []int{1, 3, 5, 8, 32, 48, 64, 128, 200, 256} {
		row := []string{fmt.Sprint(r), fmtInt(arcs / int64(r))}
		var work [2]int64
		for i, twoD := range []bool{false, true} {
			plan, err := planChain(ch, r, twoD)
			if err != nil {
				return err
			}
			busy, most := rankLoad(plan)
			row = append(row, fmt.Sprint(busy), fmtInt(most))
			work[i] = most
		}
		// Within 1 % of the ideal total/R, compared exactly.
		row = append(row, check(100*work[1]*int64(r) <= 101*arcs), check(work[1] <= work[0]))
		rows = append(rows, row)
	}
	table(w, []string{"R", "ideal work/rank", "busy ranks (1D)", "max work/rank (1D)", "busy ranks (2D)", "max work/rank (2D)",
		"2D ≤ 1.01 × ideal", "2D ≤ 1D"}, rows)
	fmt.Fprintf(w, "\nExpected shape (paper's Rem. 1): 1D busy ranks plateau at |arcs_A| = %d\n", a.NumArcs())
	fmt.Fprintf(w, "so 1D max work/rank stops shrinking, while 2D keeps scaling toward\n")
	fmt.Fprintf(w, "O(|E_C|) ranks. Verified against actual count-only engine runs:\n\n")

	var rows2 [][]string
	for _, r := range []int{32, 128} {
		for _, twoD := range []bool{false, true} {
			plan, err := planChain(ch, r, twoD)
			if err != nil {
				return err
			}
			total, st, err := countRun(plan)
			if err != nil {
				return err
			}
			_, work := rankLoad(plan)
			mode := "1D"
			if twoD {
				mode = "2D"
			}
			rows2 = append(rows2, []string{
				fmt.Sprint(r), mode, fmtInt(total),
				fmtInt(st.MaxGenerated()),
				check(total == arcs),
				check(st.MaxGenerated() == work),
			})
		}
	}
	table(w, []string{"R", "mode", "edges generated", "measured max work/rank", "complete", "= planned"}, rows2)

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
		total, st, err := countRun(plan)
		if err != nil {
			return err
		}
		busy, work := rankLoad(plan)
		rows3 = append(rows3, []string{
			fmt.Sprint(k), fmtInt(wantArcs),
			fmt.Sprint(busy),
			fmtInt(st.MaxGenerated()),
			check(total == wantArcs),
			check(busy == min(rChain, int(a.NumArcs())) && st.MaxGenerated() == work),
		})
	}
	table(w, []string{"k", "arcs", "busy ranks (1D)", "measured max work/rank", "complete", "= planned, at the wall"}, rows3)
	return nil
}

// planChain builds ch's 1D or 2D plan on r ranks.
func planChain(ch *core.Chain, r int, twoD bool) (dist.Plan, error) {
	if twoD {
		return dist.PlanChain2D(ch, r)
	}
	return dist.PlanChain1D(ch, r)
}

// rankLoad returns a plan's busy ranks (those with planned arcs) and its
// largest per-rank arc count, read from Plan.RankArcs.
func rankLoad(plan dist.Plan) (busy int, work int64) {
	for _, n := range plan.RankArcs() {
		if n > 0 {
			busy++
		}
		work = max(work, n)
	}
	return busy, work
}

// countRun runs plan's count-only engine — no owner, so each rank
// generates exactly its tiles' arcs — and returns the edges counted and
// the run's per-rank counters.
func countRun(plan dist.Plan) (int64, dist.Stats, error) {
	sink := &dist.CountSink{}
	st, err := dist.Run(context.Background(), dist.Config{Plan: plan, Sink: sink})
	return sink.Total(), st, err
}
