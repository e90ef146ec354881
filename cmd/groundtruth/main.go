// Command groundtruth prints ground-truth graph analytics for the
// Kronecker product C = A ⊗ B (or (A+I) ⊗ (B+I) with -self-loops) computed
// purely from the factors — without ever materializing C. This is the
// paper's central use case: decorate a massive generated benchmark graph
// with trusted analytic values at factor cost.
//
// Usage:
//
//	groundtruth -a A.txt -b B.txt [-self-loops]
//	            [-degrees] [-triangles] [-distances] [-closeness N] [-laws]
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"kronlab/internal/analytics"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("groundtruth: ")

	aPath := flag.String("a", "", "edge-list file for factor A (required)")
	bPath := flag.String("b", "", "edge-list file for factor B (required)")
	selfLoops := flag.Bool("self-loops", false, "analyze (A+I) ⊗ (B+I)")
	degrees := flag.Bool("degrees", true, "print the product degree histogram")
	triangles := flag.Bool("triangles", true, "print triangle ground truth")
	distances := flag.Bool("distances", false, "print eccentricity histogram and diameter (needs -self-loops)")
	closeness := flag.Int("closeness", 0, "print closeness centrality for the first N product vertices (needs -self-loops)")
	flag.Parse()

	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ga, err := graph.LoadUndirected(*aPath)
	if err != nil {
		log.Fatalf("loading A: %v", err)
	}
	gb, err := graph.LoadUndirected(*bPath)
	if err != nil {
		log.Fatalf("loading B: %v", err)
	}
	a, b := groundtruth.NewFactor(ga), groundtruth.NewFactor(gb)
	fs := []*groundtruth.Factor{a, b}

	fmt.Printf("factors: A=%v B=%v\n", ga, gb)
	nC := must(groundtruth.ChainNumVertices(fs))
	if *selfLoops {
		al := groundtruth.NewFactor(ga.WithFullSelfLoops())
		bl := groundtruth.NewFactor(gb.WithFullSelfLoops())
		if *distances || *closeness > 0 {
			al, bl = al.WithDistances(), bl.WithDistances()
		}
		looped := []*groundtruth.Factor{al, bl}
		fmt.Printf("product: C = (A+I) ⊗ (B+I), n_C = %d, m_C = %d\n",
			nC, must(groundtruth.ChainNumEdges(looped)))
		if *degrees {
			printDegreeHistogram(must(groundtruth.ChainDegrees(looped)))
		}
		if *triangles {
			if ga.NumSelfLoops() > 0 || gb.NumSelfLoops() > 0 {
				log.Fatal("-triangles with -self-loops requires loop-free input factors (the +I is added internally)")
			}
			fmt.Printf("\nglobal triangles τ_C = %d (Cor. 1 aggregate)\n",
				groundtruth.GlobalTrianglesFullLoops(a, b))
			printTriangleHistogram(groundtruth.VertexTrianglesFullLoops(a, b))
		}
		if *distances {
			fmt.Printf("\ndiameter(C) = %d (Cor. 3)\n", groundtruth.ChainDiameter(looped))
			ecc := must(groundtruth.ChainEccentricities(looped))
			fmt.Println("eccentricity histogram (Cor. 4):")
			fmt.Print(analytics.NewHistogram(ecc).Render(40))
		}
		if *closeness > 0 {
			n := int64(*closeness)
			if n > nC {
				n = nC
			}
			fmt.Printf("\ncloseness centrality (Thm. 4, compressed form):\n")
			for p := int64(0); p < n; p++ {
				fmt.Printf("  ζ_C(%d) = %.4f\n", p, groundtruth.ClosenessCompressedAt(al, bl, p))
			}
		}
		return
	}

	fmt.Printf("product: C = A ⊗ B, n_C = %d, m_C = %d\n", nC, must(groundtruth.ChainNumEdges(fs)))
	if *degrees {
		printDegreeHistogram(must(groundtruth.ChainDegrees(fs)))
	}
	if *triangles {
		tri := must(groundtruth.ChainVertexTriangles(fs)) // before τ_C: it panics on a factor with loops
		fmt.Printf("\nglobal triangles τ_C = 6·τ_A·τ_B = %d\n", must(groundtruth.ChainGlobalTriangles(fs)))
		printTriangleHistogram(tri)
	}
	if *distances || *closeness > 0 {
		log.Fatal("-distances and -closeness require -self-loops (Thm. 3 hypothesis)")
	}
}

// must returns v, or exits naming err (a count that overflows int64).
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

func printDegreeHistogram(deg []int64) {
	fmt.Println("\ndegree histogram (d_C = d_A ⊗ d_B):")
	fmt.Print(analytics.NewHistogram(deg).Render(40))
}

func printTriangleHistogram(tri []int64) {
	fmt.Println("vertex triangle-count histogram:")
	fmt.Print(analytics.NewHistogram(tri).Render(40))
}
