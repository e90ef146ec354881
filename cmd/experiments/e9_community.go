package main

import (
	"errors"
	"fmt"
	"io"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// runCommunity reproduces Sec. VI-A and Fig. 2. The paper: A =
// GraphChallenge groundtruth_20000 (20K vertices, 409K edges, 33
// communities, ρ_in ∈ [3e-2, 1e-1], ρ_out ∈ [2.5e-4, 5.5e-4]);
// C = (A+I)⊗(A+I) has 400M vertices, 83.5B edges and 1089 Kronecker
// communities with ρ_in ∈ [1e-3, 1.2e-2], ρ_out ∈ [5e-7, 3e-6].
//
// Here A is an SBM stand-in with matched size, 33 blocks and the paper's
// density ranges. The 1089 product-community densities come from Thm. 6
// exactly — no materialization — and Thm. 6 itself is validated on a
// materialized product at reduced scale.
func runCommunity(w io.Writer) error {
	// Full scale: 33 blocks of 606 ≈ 20K vertices, internal densities
	// spread over the paper's [3e-2, 1e-1].
	const blocks = 33
	pin := make([]float64, blocks)
	for i := range pin {
		pin[i] = 0.03 + 0.07*float64(i)/float64(blocks-1)
	}
	a, pa := gen.SBMSparse(gen.SBMParams{
		BlockSizes: gen.EqualBlocks(blocks, 606),
		PIn:        0.065, POut: 2.2e-4, Seed: 99, PInBlocks: pin,
	})
	statsA := analytics.Communities(a, pa)

	faL := groundtruth.NewFactor(a.WithFullSelfLoops(), 0)
	nC, errN := groundtruth.ChainNumVertices([]*groundtruth.Factor{faL, faL})
	mC, errM := groundtruth.ChainNumEdges([]*groundtruth.Factor{faL, faL})
	if err := errors.Join(errN, errM); err != nil {
		return err
	}
	statsC, err := groundtruth.CommunitiesKron([]*graph.Graph{a, a}, [][]analytics.CommunityStats{statsA, statsA})
	if err != nil {
		return err
	}

	minInA, maxInA, minOutA, maxOutA := densityRanges(statsA)
	minInC, maxInC, minOutC, maxOutC := densityRanges(statsC)
	table(w, []string{"", "A", "C = (A+I) ⊗ (A+I)"}, [][]string{
		{"Vertices", fmtInt(a.NumVertices()), fmtInt(nC)},
		{"Edges", fmtInt(a.NumEdges()), fmtInt(mC)},
		{"# comms", fmt.Sprint(len(pa)), fmt.Sprint(len(statsC))},
		{"ρ_in", fmt.Sprintf("[%s, %s]", fmtFloat(minInA), fmtFloat(maxInA)), fmt.Sprintf("[%s, %s]", fmtFloat(minInC), fmtFloat(maxInC))},
		{"ρ_out", fmt.Sprintf("[%s, %s]", fmtFloat(minOutA), fmtFloat(maxOutA)), fmt.Sprintf("[%s, %s]", fmtFloat(minOutC), fmtFloat(maxOutC))},
	})
	fmt.Fprintf(w, "\n(paper: A 20,000 / 408,778 / 33 comms, ρ_in [3e-2,1e-1], ρ_out [2.5e-4,5.5e-4];\n")
	fmt.Fprintf(w, " C 400M / 83.5B / 1089 comms, ρ_in [1e-3,1.2e-2], ρ_out [5e-7,3e-6])\n\n")

	// Fig. 2: scatter of internal vs external density, factor (+) and
	// product (o) communities.
	var pts []scatterPoint
	for _, s := range statsA {
		pts = append(pts, scatterPoint{X: s.RhoOut, Y: s.RhoIn, Mark: '+'})
	}
	for _, s := range statsC {
		pts = append(pts, scatterPoint{X: s.RhoOut, Y: s.RhoIn, Mark: 'o'})
	}
	asciiScatter(w, "Fig. 2: communities of A (+) and of C (o)", "rho_out", "rho_in", pts, 64, 20)
	fmt.Fprintf(w, "\nExpected shape: the product cloud (o) sits down-left of the factor\n")
	fmt.Fprintf(w, "cloud (+) at roughly the squared densities, both separated from the\n")
	fmt.Fprintf(w, "diagonal — communities survive the Kronecker product (Cor. 6/7).\n\n")

	// Bound checks at full scale (no materialization needed).
	boundsOK := true
	for ai := range pa {
		for bi := range pa {
			sa, sb := statsA[ai], statsA[bi]
			pred, err := groundtruth.CommunityKron([]*graph.Graph{a, a}, []analytics.CommunityStats{sa, sb})
			if err != nil {
				return err
			}
			if sa.Size > 1 && sb.Size > 1 && pred.RhoIn < groundtruth.RhoInLowerBound(sa, sb)-1e-12 {
				boundsOK = false
			}
			if sa.MOut >= sa.Size && sb.MOut >= sb.Size &&
				pred.RhoOut > groundtruth.RhoOutUpperBound(a, a, sa, sb)+1e-12 {
				boundsOK = false
			}
		}
	}
	fmt.Fprintf(w, "Cor. 6 lower bound and (corrected) Cor. 7 upper bound hold for all\n")
	fmt.Fprintf(w, "%d product communities: %s\n\n", len(statsC), check(boundsOK))

	// Reduced scale: validate Thm. 6 counts against a materialized product.
	small, psmall := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(4, 40), PIn: 0.3, POut: 0.02, Seed: 7})
	c, err := core.Product(small.WithFullSelfLoops(), small.WithFullSelfLoops())
	if err != nil {
		return err
	}
	statsSmall := analytics.Communities(small, psmall)
	okCount, total := 0, 0
	for ai := range psmall {
		for bi := range psmall {
			total++
			pred, err := groundtruth.CommunityKron([]*graph.Graph{small, small}, []analytics.CommunityStats{statsSmall[ai], statsSmall[bi]})
			if err != nil {
				return err
			}
			sc := core.KronSet(psmall[ai], psmall[bi], small.NumVertices())
			meas := analytics.Community(c, sc)
			if pred.MIn == meas.MIn && pred.MOut == meas.MOut {
				okCount++
			}
		}
	}
	fmt.Fprintf(w, "Reduced-scale oracle: Thm. 6 m_in/m_out exact on a materialized\n")
	fmt.Fprintf(w, "product (n_C = %s) for %d/%d Kronecker communities. %s\n",
		fmtInt(c.NumVertices()), okCount, total, check(okCount == total))
	return nil
}

func densityRanges(stats []analytics.CommunityStats) (minIn, maxIn, minOut, maxOut float64) {
	first := true
	for _, s := range stats {
		if first {
			minIn, maxIn, minOut, maxOut = s.RhoIn, s.RhoIn, s.RhoOut, s.RhoOut
			first = false
			continue
		}
		if s.RhoIn < minIn {
			minIn = s.RhoIn
		}
		if s.RhoIn > maxIn {
			maxIn = s.RhoIn
		}
		if s.RhoOut < minOut {
			minOut = s.RhoOut
		}
		if s.RhoOut > maxOut {
			maxOut = s.RhoOut
		}
	}
	return minIn, maxIn, minOut, maxOut
}
