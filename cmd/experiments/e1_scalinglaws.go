package main

import (
	"fmt"
	"io"
	"math"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/validate"
)

// runScalingLaws reproduces the Sec. I scaling-law table: for several
// factor families, validate.Run holds A⊗B and (A+I)⊗(B+I), materialized,
// to every law at every vertex, arc and community.
func runScalingLaws(w io.Writer) error {
	type pair struct {
		name   string
		a, b   *graph.Graph
		pa, pb [][]int64
	}
	sbmA, partA := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(3, 8), PIn: 0.7, POut: 0.1, Seed: 3})
	sbmB, partB := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(2, 9), PIn: 0.6, POut: 0.12, Seed: 4})
	pairs := []pair{
		{"ER(14,.35) ⊗ ER(12,.4)", gen.ER(14, 0.35, 1), gen.ER(12, 0.4, 2),
			[][]int64{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13}},
			[][]int64{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}},
		{"SBM(3×8) ⊗ SBM(2×9)", sbmA, sbmB, partA, partB},
		{"PrefAttach(15,2) ⊗ RMAT(4)", connected(gen.PrefAttach(15, 2, 5)), connected(gen.MustRMAT(gen.Graph500Params(4, 6))),
			[][]int64{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13, 14}}, nil},
		{"Ring(10) ⊗ Clique(5)", gen.Ring(10), gen.Clique(5),
			[][]int64{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
			[][]int64{{0, 1, 2, 3, 4}}},
	}
	fmt.Fprintf(w, "Each row of the paper's table, predicted from factors and measured\n")
	fmt.Fprintf(w, "exactly on the materialized product by validate.Run, at every vertex,\n")
	fmt.Fprintf(w, "arc and community. Equality laws must match exactly; bound laws (≥, ≤)\n")
	fmt.Fprintf(w, "must hold as inequalities.\n\n")
	for _, pr := range pairs {
		if pr.pb == nil {
			// Second partition missing → trivial one-set partition.
			all := make([]int64, pr.b.NumVertices())
			for i := range all {
				all[i] = int64(i)
			}
			pr.pb = [][]int64{all}
		}
		c, err := core.Product(pr.a, pr.b)
		if err != nil {
			return err
		}
		cl, err := core.Product(pr.a.WithFullSelfLoops(), pr.b.WithFullSelfLoops())
		if err != nil {
			return err
		}
		gs := []*graph.Graph{pr.a, pr.b}
		fmt.Fprintf(w, "### %s\n\n", pr.name)
		if err := validated(w,
			claim{"A⊗B", gs, c, validate.Options{Samples: math.MaxInt}},
			claim{"(A+I)⊗(B+I)", gs, cl, validate.Options{SelfLoops: true, Samples: math.MaxInt, Partitions: [][][]int64{pr.pa, pr.pb}}},
		); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

// connected extracts the largest connected component so distance laws are
// finite.
func connected(g *graph.Graph) *graph.Graph {
	lcc, _ := g.LargestComponent()
	return lcc
}
