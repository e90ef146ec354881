package main

import (
	"fmt"
	"io"
	"math"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/validate"
)

// runCliques reproduces Ex. 1: (x_A cliques of size y_A) ⊗ (x_B cliques
// of size y_B) with full self loops yields x_A·x_B disjoint cliques of
// size y_A·y_B, and squaring a stochastic block model yields
// ρ_in(S_C) ≈ ρ0² and ρ_out(S_C) ≈ ρ1².
func runCliques(w io.Writer) error {
	// Part 1: exact clique structure.
	var rows [][]string
	var claims []claim
	for _, cfg := range [][4]int64{{2, 3, 3, 2}, {3, 4, 2, 5}, {4, 2, 4, 3}} {
		xa, ya, xb, yb := cfg[0], cfg[1], cfg[2], cfg[3]
		a := gen.DisjointCliques(xa, ya)
		b := gen.DisjointCliques(xb, yb)
		c, err := core.Product(a.WithFullSelfLoops(), b.WithFullSelfLoops())
		if err != nil {
			return err
		}
		_, comps := c.ConnectedComponents()
		rows = append(rows, []string{
			fmt.Sprintf("%d×K%d ⊗ %d×K%d", xa, ya, xb, yb),
			fmt.Sprintf("%d×K%d", xa*xb, ya*yb),
			fmt.Sprintf("%d comps %s", comps, check(comps == xa*xb)),
		})
		claims = append(claims, claim{fmt.Sprintf("(%d×K%d+I)⊗(%d×K%d+I)", xa, ya, xb, yb), []*graph.Graph{a, b}, c, validate.Options{SelfLoops: true, Samples: math.MaxInt}})
	}
	table(w, []string{"Factors", "Predicted", "Components"}, rows)
	fmt.Fprintf(w, "\nEach component is a clique with its loops: every vertex has degree\n")
	fmt.Fprintf(w, "y_A·y_B, the degree law's value, which validate.Run checks with every\n")
	fmt.Fprintf(w, "other law of (A+I)⊗(B+I) at every vertex and arc:\n\n")
	if err := validated(w, claims...); err != nil {
		return err
	}

	// Part 2: SBM squaring — densities square, up to a finite-size
	// correction. Ex. 1's ρ_out(S_C) ≈ ρ1² needs "factors of significant
	// size": expanding Thm. 6 for equal blocks of size s in an n-vertex
	// factor gives
	//
	//	ρ_out(S_C) ≈ [ρ1²(n−s) + 2ρ1 + 2ρ0ρ1(s−1)] / (n+s),
	//
	// which → ρ1² only when s/n → 0 (i.e. 2ρ0·s/n ≪ ρ1). Both the
	// asymptotic and the corrected predictions are shown.
	rho0, rho1 := 0.3, 0.05
	s, k := int64(10), 60
	a, pa := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(k, s), PIn: rho0, POut: rho1, Seed: 31})
	n := float64(a.NumVertices())
	statsA := analytics.Communities(a, pa)
	statsC, err := groundtruth.CommunitiesKron([]*graph.Graph{a, a}, [][]analytics.CommunityStats{statsA, statsA})
	if err != nil {
		return err
	}
	var sumIn, sumOut float64
	for _, st := range statsC {
		sumIn += st.RhoIn
		sumOut += st.RhoOut
	}
	meanIn := sumIn / float64(len(statsC))
	meanOut := sumOut / float64(len(statsC))
	sf := float64(s)
	corrOut := (rho1*rho1*(n-sf) + 2*rho1 + 2*rho0*rho1*(sf-1)) / (n + sf)
	// Internal density gains a +I loop term the same way:
	// ρ_in(S_C) ≈ ρ0²(s−1)/(s+1) + 2ρ0/(s+1) → ρ0² as s grows.
	corrIn := (rho0*rho0*(sf-1) + 2*rho0) / (sf + 1)
	fmt.Fprintf(w, "\nSBM with %d blocks of %d, ρ0 = %.2f, ρ1 = %.3f squared via (A+I)⊗(A+I):\n",
		k, s, rho0, rho1)
	table(w, []string{"Quantity", "Ex. 1 asymptotic", "finite-size corrected", "Ground truth (Thm. 6)", "OK (±25% of corrected)"}, [][]string{
		{"mean ρ_in(S_C)", fmtFloat(rho0 * rho0), fmtFloat(corrIn), fmtFloat(meanIn),
			check(math.Abs(meanIn-corrIn)/corrIn < 0.25)},
		{"mean ρ_out(S_C)", fmtFloat(rho1 * rho1), fmtFloat(corrOut), fmtFloat(meanOut),
			check(math.Abs(meanOut-corrOut)/corrOut < 0.25)},
	})
	fmt.Fprintf(w, "\nThe gap between the asymptotic ρ1² and the corrected value is the\n")
	fmt.Fprintf(w, "2ρ0ρ1·s/n cross term — the paper's \"factors of significant size\"\n")
	fmt.Fprintf(w, "hypothesis quantified.\n")
	return nil
}
