package kronlab_test

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

// Example builds two small factors, forms their Kronecker product both
// serially and on a simulated cluster, and reads off ground truth for the
// product from the factors alone, each value beside its measurement on C.
// Run it with go test -run '^Example$' -v .
func Example() {
	// Two small scale-free-ish factors.
	a := gen.PrefAttach(30, 2, 1)
	b := gen.MustRMAT(gen.Graph500Params(5, 2))
	fmt.Printf("factor A: %v\nfactor B: %v\n", a, b)

	// Serial product.
	c, err := core.Product(a, b)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("product C = A ⊗ B: %v\n", c)

	// The same product on a simulated 4-rank cluster, as the two-factor
	// chain A ⊗ B under 1D partitioning. OwnerBySource is a map of the
	// source alone, so each rank generates exactly the edges it stores.
	ch, err := core.NewChain(a, b)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dist.GenerateChain(ch, 4, dist.OwnerBySource, false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed generation on 4 ranks: %d edges generated owner-side\n", res.Stats.EdgesGenerated)
	// A rank generates what it stores, so the busiest rank's share is the
	// run's wall: max stored over the ideal 1/R.
	fmt.Printf("load max/ideal = %.2f (rank %d)\n",
		float64(res.Stats.MaxStored())*4/float64(res.TotalStored()), slices.Index(res.Stats.PerRankStored, res.Stats.MaxStored()))
	collected, err := res.Collect()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("distributed == serial: %v\n", collected.Equal(c))

	// Ground truth from the factor chain [A, B]; every count is checked
	// against int64 overflow.
	fs := []*groundtruth.Factor{groundtruth.NewFactor(a, groundtruth.Triangles), groundtruth.NewFactor(b, groundtruth.Triangles)}
	nC, errN := groundtruth.ChainNumVertices(fs)
	mC, errM := groundtruth.ChainNumEdges(fs)
	tauC, errT := groundtruth.ChainGlobalTriangles(fs)
	if err := errors.Join(errN, errM, errT); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vertices:  ground truth %d, measured %d\n", nC, c.NumVertices())
	fmt.Printf("edges:     ground truth %d, measured %d\n", mC, c.NumEdges())
	fmt.Printf("triangles: ground truth %d, measured %d\n", tauC, analytics.GlobalTriangles(c))

	// Per-vertex ground truth at a product vertex p = γ(i, k).
	p := int64(137)
	coords := ch.Index().Split(p)
	tp, err := groundtruth.ChainVertexTrianglesAt(fs, coords)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("vertex %d = (i=%d, k=%d):\n", p, coords[0], coords[1])
	fmt.Printf("  d_p = d_i·d_k = %d, measured %d\n", groundtruth.ChainDegreeAt(fs, coords), c.Degree(p))
	fmt.Printf("  t_p = 2·t_i·t_k = %d, measured %d\n", tp, analytics.Triangles(c).Vertex[p])
	// Output:
	// factor A: graph{n=30 m=57 loops=0}
	// factor B: graph{n=32 m=143 loops=0}
	// product C = A ⊗ B: graph{n=960 m=16302 loops=0}
	// distributed generation on 4 ranks: 32604 edges generated owner-side
	// load max/ideal = 1.00 (rank 1)
	// distributed == serial: true
	// vertices:  ground truth 960, measured 960
	// edges:     ground truth 16302, measured 16302
	// triangles: ground truth 22836, measured 22836
	// vertex 137 = (i=4, k=9):
	//   d_p = d_i·d_k = 72, measured 72
	//   t_p = 2·t_i·t_k = 256, measured 256
}
