package groundtruth_test

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// ExampleChainGlobalTriangles reads off τ_C = 6·τ_A·τ_B without
// generating C.
func ExampleChainGlobalTriangles() {
	a := groundtruth.NewFactor(gen.Clique(4), groundtruth.Triangles) // τ = 4
	b := groundtruth.NewFactor(gen.Clique(5), groundtruth.Triangles) // τ = 10
	fmt.Println(groundtruth.ChainGlobalTriangles([]*groundtruth.Factor{a, b}))
	// Output: 240 <nil>
}

// ExampleChainDegreeAt multiplies the factor degrees at a product
// vertex's coordinates.
func ExampleChainDegreeAt() {
	a := groundtruth.NewFactor(gen.Star(5), 0) // center degree 4
	b := groundtruth.NewFactor(gen.Ring(6), 0) // all degrees 2
	// Product vertex γ(0, 3): the star center paired with ring vertex 3.
	fmt.Println(groundtruth.ChainDegreeAt([]*groundtruth.Factor{a, b}, []int64{0, 3}))
	// Output: 8
}

// ExampleLaw_Eval finds Cor. 3's row, the max law over the diameters of
// the factors with full self loops, and evaluates it on (A+I)⊗(B+I).
func ExampleLaw_Eval() {
	gs := []*graph.Graph{gen.Ring(10), gen.Path(4)} // diam 5 and 3
	diameter, fs, err := groundtruth.Resolve("diameter", groundtruth.Global, gs, true, groundtruth.Summaries(gs))
	if err != nil {
		panic(err)
	}
	fmt.Println(diameter.Eval(fs, nil, nil))
	// Output: 5 <nil>
}

// ExampleCommunityKron computes Thm. 6 community counts for the product
// of two disjoint-clique factors.
func ExampleCommunityKron() {
	a := gen.DisjointCliques(2, 3)
	sa := analytics.Community(a, []int64{0, 1, 2}) // one clique
	sc, _ := groundtruth.CommunityKron([]*graph.Graph{a, a}, []analytics.CommunityStats{sa, sa})
	fmt.Println(sc.Size, sc.MIn, sc.MOut)
	// Output: 9 36 0
}
