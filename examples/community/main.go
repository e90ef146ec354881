// Community: the paper's Sec. VI workflow. A stochastic block model with
// planted communities is squared via C = (A+I) ⊗ (A+I); every product
// community's internal and external edge counts and densities come from
// Thm. 6 in closed form, and the Cor. 6/7 scaling laws are checked.
//
// Run with: go run ./examples/community
package main

import (
	"fmt"
	"log"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

func main() {
	log.SetFlags(0)

	// A factor with 5 planted communities.
	a, pa := gen.SBM(gen.SBMParams{
		BlockSizes: gen.EqualBlocks(5, 24),
		PIn:        0.4, POut: 0.02, Seed: 42,
	})
	statsA := analytics.Communities(a, pa)
	fmt.Printf("factor A: %v with %d communities\n", a, len(pa))
	for i, s := range statsA {
		fmt.Printf("  S_A^(%d): |S|=%d  m_in=%d  m_out=%d  ρ_in=%.3f  ρ_out=%.4f\n",
			i, s.Size, s.MIn, s.MOut, s.RhoIn, s.RhoOut)
	}

	// Product communities — all 25 of them — from Thm. 6, no product
	// materialization required.
	gs := []*graph.Graph{a, a}
	statsC, err := groundtruth.CommunitiesKron(gs, [][]analytics.CommunityStats{statsA, statsA})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nC = (A+I) ⊗ (A+I): %d vertices, %d Kronecker communities (Def. 16)\n",
		a.NumVertices()*a.NumVertices(), len(statsC))
	fmt.Println("first few product communities (Thm. 6 ground truth):")
	for i := 0; i < 5; i++ {
		s := statsC[i]
		fmt.Printf("  S_C^(%d): |S|=%d  m_in=%d  m_out=%d  ρ_in=%.4f  ρ_out=%.6f\n",
			i, s.Size, s.MIn, s.MOut, s.RhoIn, s.RhoOut)
	}

	// Validate one community against the materialized product.
	c, err := core.ProductWithSelfLoops(a, a)
	if err != nil {
		log.Fatal(err)
	}
	sc := core.KronSet(pa[1], pa[2], a.NumVertices())
	measured := analytics.Community(c, sc)
	predicted, err := groundtruth.CommunityKron(gs, []analytics.CommunityStats{statsA[1], statsA[2]})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nvalidation on S_A^(1) ⊗ S_A^(2): predicted m_in=%d m_out=%d, measured m_in=%d m_out=%d\n",
		predicted.MIn, predicted.MOut, measured.MIn, measured.MOut)

	// Scaling-law bounds.
	lo := groundtruth.RhoInLowerBound(statsA[1], statsA[2])
	hi := groundtruth.RhoOutUpperBound(a, a, statsA[1], statsA[2])
	fmt.Printf("Cor. 6: ρ_in = %.5f ≥ %.5f (⅓·ρ_in·ρ_in bound)  %v\n",
		predicted.RhoIn, lo, predicted.RhoIn >= lo)
	fmt.Printf("Cor. 7 (corrected): ρ_out = %.6f ≤ %.6f  %v\n",
		predicted.RhoOut, hi, predicted.RhoOut <= hi)
}
