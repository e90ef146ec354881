// Eccentricity: the paper's Fig. 1 workflow on a peer-to-peer-like
// factor. A is a gnutella-like scale-free graph; C = A ⊗ A would have
// ~40M vertices, yet its full eccentricity histogram is computed here in
// milliseconds from the factor (Cor. 4), and validated at reduced scale
// against a distributed BFS-based eccentricity algorithm.
//
// Run with: go run ./examples/eccentricity
package main

import (
	"errors"
	"fmt"
	"log"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/groundtruth"
	"kronlab/internal/havoq"
)

func main() {
	log.SetFlags(0)

	// The paper's preprocessing: undirected LCC, then full self loops.
	a := gen.GnutellaLike(2019).WithFullSelfLoops()
	fa := groundtruth.NewFactor(a)
	fmt.Printf("factor A (gnutella-like): %v\n", a)

	start := time.Now()
	fa = fa.WithDistances()
	fmt.Printf("factor eccentricities computed in %v; diam(A) = %d\n\n",
		time.Since(start).Round(time.Millisecond), fa.Diam)

	square := []*groundtruth.Factor{fa, fa}
	nC, errN := groundtruth.ChainNumVertices(square)
	mC, errM := groundtruth.ChainNumEdges(square)
	if err := errors.Join(errN, errM); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("C = A ⊗ A has %d vertices and %d edges — never materialized.\n", nC, mC)
	start = time.Now()
	hist, err := groundtruth.ChainEccentricityHistogram(square)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("eccentricity histogram of C (Cor. 4) in %v:\n", time.Since(start))
	for e := fa.Diam; e >= 0; e-- {
		if c, ok := hist[e]; ok {
			fmt.Printf("  ε = %2d : %d vertices\n", e, c)
		}
	}

	// Reduced-scale cross-check against a distributed algorithm.
	small, _ := gen.PrefAttach(40, 2, 7).LargestComponent()
	sl := small.WithFullSelfLoops()
	fs := groundtruth.NewFactor(sl).WithDistances()
	cSmall, err := core.Product(sl, sl)
	if err != nil {
		log.Fatal(err)
	}
	dg, err := havoq.Build(cSmall, 4)
	if err != nil {
		log.Fatal(err)
	}
	res, err := dg.ExactEccentricities()
	if err != nil {
		log.Fatal(err)
	}
	smallSquare := []*groundtruth.Factor{fs, fs}
	pred, err := groundtruth.ChainEccentricities(smallSquare)
	if err != nil {
		log.Fatal(err)
	}
	match := 0
	for p := range pred {
		if pred[p] == res.Ecc[p] {
			match++
		}
	}
	fmt.Printf("\nreduced-scale check: distributed eccentricity (%d BFS sweeps on 4 ranks)\n", res.Sweeps)
	fmt.Printf("matches Cor. 4 at %d/%d vertices; diam(C') = %d = max law %d\n",
		match, len(pred), res.Diameter(), groundtruth.ChainDiameter(smallSquare))
}
