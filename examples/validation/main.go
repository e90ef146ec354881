// Validation: the paper's motivating use case (Sec. I). When validating a
// new distributed analytic at scales where no trusted implementation can
// run, nonstochastic Kronecker products give exact expected answers. Here
// a correct and a subtly buggy triangle counter are both run on a
// generated product; the Kronecker ground truth convicts the buggy one.
//
// Run with: go run ./examples/validation
package main

import (
	"fmt"
	"log"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/havoq"
)

func main() {
	log.SetFlags(0)

	// Benchmark input: C = A ⊗ B from two scale-free factors.
	a := gen.PrefAttach(50, 3, 1)
	b := gen.MustRMAT(gen.Graph500Params(6, 2))
	fs := []*groundtruth.Factor{groundtruth.NewFactor(a), groundtruth.NewFactor(b)}
	c, err := core.Product(a, b)
	if err != nil {
		log.Fatal(err)
	}
	want, err := groundtruth.ChainGlobalTriangles(fs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmark graph C = A ⊗ B: %v\n", c)
	fmt.Printf("ground-truth global triangles (6·τ_A·τ_B): %d\n\n", want)

	// System under test 1: the distributed counter.
	dg, err := havoq.Build(c, 4)
	if err != nil {
		log.Fatal(err)
	}
	got := dg.Triangles().Global
	fmt.Printf("distributed counter:        %12d  %s\n", got, verdict(got == want))

	// System under test 2: a buggy counter that forgets to exclude the
	// wedge endpoints when intersecting neighborhoods — a classic
	// off-by-self error that only bites on graphs with self loops.
	cl, err := core.ProductWithSelfLoops(a, b)
	if err != nil {
		log.Fatal(err)
	}
	got = buggyTriangleCount(cl)
	wantLoops, err := groundtruth.ChainGlobalTrianglesFullLoops(fs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("buggy counter (on (A+I)⊗(B+I)): %12d  %s (ground truth %d)\n",
		got, verdict(got == wantLoops), wantLoops)

	// The same buggy code passes on a loop-free graph — which is why the
	// paper's point matters: validation needs ground truth on inputs that
	// exercise the failure mode, and Kronecker products make those cheap
	// to generate at any scale.
	got = buggyTriangleCount(c)
	fmt.Printf("buggy counter (on C):       %12d  %s — bug invisible without loops\n",
		got, verdict(got == want))
}

// buggyTriangleCount intersects full sorted neighborhoods without
// excluding the edge endpoints, so any self loop at a common neighbor —
// or at the endpoints themselves — inflates the count.
func buggyTriangleCount(g *graph.Graph) int64 {
	var sum int64
	g.Edges(func(u, v int64) bool {
		if u == v {
			return true
		}
		nu, nv := g.Neighbors(u), g.Neighbors(v)
		i, j := 0, 0
		for i < len(nu) && j < len(nv) {
			switch {
			case nu[i] < nv[j]:
				i++
			case nu[i] > nv[j]:
				j++
			default:
				sum++ // BUG: counts w == u and w == v too
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
		return "PASS"
	}
	return "FAIL"
}
