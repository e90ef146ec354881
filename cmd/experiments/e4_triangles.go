package main

import (
	"fmt"
	"io"
	"time"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/groundtruth"
	"kronlab/internal/havoq"
)

// runTriangles reproduces Sec. IV-A: ground-truth vertex and edge
// triangle counts for C = (A+I)⊗(B+I) from Cor. 1 and (corrected) Cor. 2,
// validated against exact counting on the materialized product and
// holding havoq's distributed counter to them, with the
// sublinear-vs-linear cost contrast the paper advertises.
func runTriangles(w io.Writer) error {
	a := connected(gen.PrefAttach(60, 3, 11))
	b := connected(gen.MustRMAT(gen.Graph500Params(6, 12)))
	fs := []*groundtruth.Factor{groundtruth.NewFactor(a, groundtruth.Triangles), groundtruth.NewFactor(b, groundtruth.Triangles)}

	start := time.Now()
	c, err := core.ProductWithSelfLoops(a, b)
	if err != nil {
		return err
	}
	genTime := time.Since(start)

	fmt.Fprintf(w, "A: %v, B: %v → C = (A+I)⊗(B+I): %v (materialized in %v).\n\n",
		a, b, c, genTime.Round(time.Millisecond))

	// Exact counting on C (the expensive oracle).
	start = time.Now()
	exact := analytics.Triangles(c)
	exactTime := time.Since(start)

	// The distributed counter of the paper's ref [23] on the same C: the
	// kind of analytic the ground truth exists to check.
	dg, err := havoq.Build(c, 4)
	if err != nil {
		return err
	}
	start = time.Now()
	counted := dg.Triangles()
	countedTime := time.Since(start)

	// Ground truth from factors (Cor. 1 at every vertex + aggregate).
	ci := core.MustChainIndex(a.NumVertices(), b.NumVertices())
	cp, cq := make([]int64, 2), make([]int64, 2)
	start = time.Now()
	vertexOK, countedOK := true, true
	for p := int64(0); p < ci.NumVertices(); p++ {
		t, err := groundtruth.ChainVertexTrianglesFullLoopsAt(fs, ci.SplitInto(p, cp))
		if err != nil {
			return err
		}
		vertexOK = vertexOK && t == exact.Vertex[p]
		countedOK = countedOK && t == counted.Vertex[p]
	}
	tau, err := groundtruth.ChainGlobalTrianglesFullLoops(fs)
	if err != nil {
		return err
	}
	gtTime := time.Since(start)

	edgeOK := true
	var checkedEdges int64
	idx := int64(-1)
	c.Arcs(func(u, v int64) bool {
		idx++
		if u == v {
			return true
		}
		checkedEdges++
		if t, err := groundtruth.ChainEdgeTrianglesFullLoopsAt(fs, ci.SplitInto(u, cp), ci.SplitInto(v, cq)); err != nil || t != exact.Arc[idx] {
			edgeOK = false
			return false
		}
		return true
	})

	table(w, []string{"Quantity", "Ground truth (factors)", "Exact (product)", "OK"}, [][]string{
		{"global triangles τ_C", fmtInt(tau), fmtInt(exact.Global), check(tau == exact.Global)},
		{"vertex counts t_p (all)", fmt.Sprintf("%d values", ci.NumVertices()), "counted", check(vertexOK)},
		{"edge counts Δ_pq (all arcs)", fmtInt(checkedEdges), "counted", check(edgeOK)},
		{"τ_C and every t_p by havoq's distributed counter (ref [23], 4 ranks)", fmtInt(tau), fmtInt(counted.Global), check(countedOK && counted.Global == tau)},
	})
	fmt.Fprintf(w, "\nCost contrast (the paper's O(|E_C|^{p/2}) claim): ground truth from\n")
	fmt.Fprintf(w, "factors took %v; exact counting on C took %v (%.0fx).\n",
		gtTime.Round(time.Microsecond), exactTime.Round(time.Microsecond),
		float64(exactTime)/float64(gtTime))
	fmt.Fprintf(w, "The distributed counter took %v and exchanged %s records.\n",
		countedTime.Round(time.Millisecond), fmtInt(counted.Messages))
	fmt.Fprintf(w, "(Every timing here depends on the machine that ran it.)\n")
	fmt.Fprintf(w, "\nNote: the printed Cor. 2 overcounts the δ(i,j)/δ(k,l) diagonal cases\n")
	fmt.Fprintf(w, "by 2; this implementation uses the corrected appendix expansion (see\n")
	fmt.Fprintf(w, "groundtruth.ChainEdgeTrianglesFullLoopsAt), which is what validates above.\n")
	return nil
}
