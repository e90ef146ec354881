// Quickstart: build two small factors, form their Kronecker product both
// serially and on a simulated cluster, and read off ground-truth
// analytics for the product from the factors alone.
//
// Run with: go run ./examples/quickstart
package main

import (
	"errors"
	"fmt"
	"log"
	"slices"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/groundtruth"
)

func main() {
	log.SetFlags(0)

	// Two small scale-free-ish factors.
	a := gen.PrefAttach(30, 2, 1)
	b := gen.MustRMAT(gen.Graph500Params(5, 2))
	fmt.Printf("factor A: %v\nfactor B: %v\n", a, b)

	// Serial product.
	c, err := core.Product(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("product C = A ⊗ B: %v\n\n", c)

	// The same product on a simulated 4-rank cluster, as the two-factor
	// chain A ⊗ B under 1D partitioning; every edge lands on the rank
	// chosen by the owner function — and, the owner being a function of the
	// source alone, is generated there.
	ch, err := core.NewChain(a, b)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.GenerateChain(ch, 4, dist.OwnerBySource, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed generation on %d ranks: %d edges generated owner-side\n", 4, res.Stats.EdgesGenerated)
	// A rank generates what it stores, so the busiest rank's share is the
	// run's wall: max stored over the ideal 1/R.
	fmt.Printf("load max/ideal = %.2f (rank %d)\n",
		float64(res.Stats.MaxStored())*4/float64(res.TotalStored()), slices.Index(res.Stats.PerRankStored, res.Stats.MaxStored()))
	collected, err := res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed == serial: %v\n\n", collected.Equal(c))

	// Ground truth from factors, validated against direct measurement.
	// The laws take the factor chain [A, B]; every count is checked
	// against int64 overflow.
	fs := []*groundtruth.Factor{groundtruth.NewFactor(a), groundtruth.NewFactor(b)}
	nC, errN := groundtruth.ChainNumVertices(fs)
	mC, errM := groundtruth.ChainNumEdges(fs)
	tauC, errT := groundtruth.ChainGlobalTriangles(fs)
	if err := errors.Join(errN, errM, errT); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ground-truth vertex count: %d (measured %d)\n", nC, c.NumVertices())
	fmt.Printf("ground-truth edge count:   %d (measured %d)\n", mC, c.NumEdges())
	fmt.Printf("ground-truth triangles:    %d (measured %d)\n", tauC, analytics.GlobalTriangles(c))

	// Per-vertex ground truth at an arbitrary product vertex.
	p := int64(137)
	coords := ch.Index().Split(p)
	fmt.Printf("\nvertex p=%d decomposes as (i=%d, k=%d):\n", p, coords[0], coords[1])
	fmt.Printf("  degree    d_p = d_i·d_k = %d (measured %d)\n",
		groundtruth.ChainDegreeAt(fs, coords), c.Degree(p))
	tp, err := groundtruth.ChainVertexTrianglesAt(fs, coords)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  triangles t_p = 2·t_i·t_k = %d (measured %d)\n", tp, analytics.Triangles(c).Vertex[p])
}
