package main

import (
	"fmt"
	"io"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/groundtruth"
)

// runExtensions is an extension experiment: the Sec. I table's laws for
// Kronecker powers A^{⊗k}, the chain of k copies of one factor.
func runExtensions(w io.Writer) error {
	pg := gen.PrefAttach(7, 2, 7)
	pf := groundtruth.NewFactor(pg, groundtruth.Triangles)
	const k = 3
	pc, err := core.KronPower(pg, k)
	if err != nil {
		return err
	}
	pcTri := analytics.Triangles(pc)
	pfs := make([]*groundtruth.Factor, k) // A^{⊗k} is the chain of k copies
	for i := range pfs {
		pfs[i] = pf
	}
	powM, err := groundtruth.ChainNumEdges(pfs)
	if err != nil {
		return err
	}
	powTau, err := groundtruth.ChainGlobalTriangles(pfs)
	if err != nil {
		return err
	}
	powOK := powM == pc.NumEdges() && powTau == pcTri.Global
	table(w, []string{"Power law (A^{⊗3})", "Predicted", "Measured", "OK"}, [][]string{
		{"m = 2^{k−1}·m_A^k", fmtInt(powM), fmtInt(pc.NumEdges()), check(powOK)},
		{"τ = 6^{k−1}·τ_A^k", fmtInt(powTau), fmtInt(pcTri.Global), check(powOK)},
	})
	fmt.Fprintf(w, "\n(Extension beyond the paper's evaluation; laws follow by induction\n")
	fmt.Fprintf(w, "from the two-factor results and are unit-tested per entry.)\n")
	return nil
}
