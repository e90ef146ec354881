package validate_test

import (
	"fmt"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// Example_buggyCounter is the paper's motivating use case (Sec. I): a
// triangle counter under test is held to the Kronecker ground truth. Its
// bug only bites where self loops are, so it agrees with ground truth on
// C = A ⊗ B and is convicted on (A+I) ⊗ (B+I) by Cor. 1 — validation needs
// ground truth on inputs that exercise the failure mode, and Kronecker
// products make those cheap at any scale.
func Example_buggyCounter() {
	a := gen.PrefAttach(50, 3, 1)
	b := gen.MustRMAT(gen.Graph500Params(6, 2))
	fs := []*groundtruth.Factor{groundtruth.NewFactor(a, groundtruth.Triangles), groundtruth.NewFactor(b, groundtruth.Triangles)}

	c, _ := core.Product(a, b)
	want, _ := groundtruth.ChainGlobalTriangles(fs)
	got := buggyTriangleCount(c)
	fmt.Printf("A ⊗ B:         ground truth %d, counter %d, %s\n", want, got, verdict(got == want))

	cl, _ := core.Product(a.WithFullSelfLoops(), b.WithFullSelfLoops())
	want, _ = groundtruth.ChainGlobalTrianglesFullLoops(fs)
	got = buggyTriangleCount(cl)
	fmt.Printf("(A+I) ⊗ (B+I): ground truth %d, counter %d, %s\n", want, got, verdict(got == want))
	// Output:
	// A ⊗ B:         ground truth 445092, counter 445092, agrees
	// (A+I) ⊗ (B+I): ground truth 1985562, counter 2081388, convicted
}

// buggyTriangleCount intersects full sorted neighborhoods without
// excluding the edge endpoints, so a self loop at a common neighbor — or
// at an endpoint itself — inflates the count.
func buggyTriangleCount(g *graph.Graph) int64 {
	var sum int64
	g.Edges(func(u, v int64) bool {
		if u == v {
			return true
		}
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		for i, j := 0, 0; i < len(nu) && j < len(nv); {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				sum++ // the bug: w == u and w == v count too
				i++
				j++
			}
		}
		return true
	})
	return sum / 3
}

func verdict(ok bool) string {
	if ok {
		return "agrees"
	}
	return "convicted"
}
