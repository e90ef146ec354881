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

// runExtensions is an extension experiment: the Sec. I table's laws for
// Kronecker powers A^{⊗k}, the chain of k copies of one factor, held by
// validate.Run to A^{⊗3} and (A+I)^{⊗3}, materialized.
func runExtensions(w io.Writer) error {
	pg := gen.PrefAttach(7, 2, 7)
	gs := []*graph.Graph{pg, pg, pg} // A^{⊗3} is the chain of three copies
	pc, err := core.Product(gs...)
	if err != nil {
		return err
	}
	pl := pg.WithFullSelfLoops()
	pcl, err := core.Product(pl, pl, pl)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A = PrefAttach(7,2); every law of A^{⊗3} and (A+I)^{⊗3}, m = 2^{k−1}·m_A^k\n")
	fmt.Fprintf(w, "and τ = 6^{k−1}·τ_A^k among them, at every vertex and arc:\n\n")
	if err := validated(w,
		claim{"A^{⊗3}", gs, pc, validate.Options{Samples: math.MaxInt}},
		claim{"(A+I)^{⊗3}", gs, pcl, validate.Options{SelfLoops: true, Samples: math.MaxInt}},
	); err != nil {
		return err
	}
	fmt.Fprintf(w, "\n(Extension beyond the paper's evaluation; laws follow by induction\n")
	fmt.Fprintf(w, "from the two-factor results and are unit-tested per entry.)\n")
	return nil
}
