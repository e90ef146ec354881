// Command groundtruth prints ground-truth graph analytics for the
// Kronecker product C = A ⊗ B (or (A+I) ⊗ (B+I) with -self-loops) computed
// purely from the factors — without ever materializing C. This is the
// paper's central use case: decorate a massive generated benchmark graph
// with trusted analytic values at factor cost.
//
// Usage:
//
//	groundtruth -a A.txt -b B.txt [-self-loops]
//	            [-degrees] [-triangles] [-distances] [-closeness N]
//	groundtruth -a A.txt -b B.txt -self-loops -per-vertex FROM:COUNT
//
// The histograms fold the factors' histograms, so nothing n_C long is
// built; Cor. 1's triangle histogram under -self-loops, whose law is no
// product of factor values, counts its point law at every product vertex
// into a value → count table instead. -per-vertex writes only a CSV
// feature table — the introduction's "local graph topological properties
// as features in machine learning tasks" — one row per product vertex p
// in [FROM, FROM+COUNT):
//
//	vertex,i,k,degree,triangles,clustering,eccentricity,closeness
package main

import (
	"bufio"
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strconv"
	"strings"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
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
	perVertex := flag.String("per-vertex", "", "print only a CSV of per-vertex ground truth for product vertices FROM:COUNT (needs -self-loops)")
	flag.Parse()

	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	var from, count int64
	if *perVertex != "" {
		f, c, ok := strings.Cut(*perVertex, ":")
		var errF, errC error
		from, errF = strconv.ParseInt(f, 10, 64)
		count, errC = strconv.ParseInt(c, 10, 64)
		if !ok || errF != nil || errC != nil || count < 0 || !*selfLoops {
			log.Printf("-per-vertex %q: want FROM:COUNT, COUNT ≥ 0, with -self-loops", *perVertex)
			os.Exit(2)
		}
	}
	if !*selfLoops && (*distances || *closeness > 0) {
		log.Fatal("-distances and -closeness require -self-loops (Thm. 3 hypothesis)")
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
	nC := must(groundtruth.ChainNumVertices(fs))

	if !*selfLoops {
		fmt.Printf("factors: A=%v B=%v\n", ga, gb)
		fmt.Printf("product: C = A ⊗ B, n_C = %d, m_C = %d\n", nC, must(groundtruth.ChainNumEdges(fs)))
		if *degrees {
			printHistogram("\ndegree histogram (d_C = d_A ⊗ d_B):", must(groundtruth.ChainDegreeHistogram(fs)))
		}
		if *triangles {
			fmt.Printf("\nglobal triangles τ_C = 6·τ_A·τ_B = %d\n", must(groundtruth.ChainGlobalTriangles(fs)))
			printHistogram("vertex triangle-count histogram:", must(groundtruth.ChainVertexTriangleHistogram(fs)))
		}
		return
	}

	if (*triangles || *perVertex != "") && (ga.NumSelfLoops() > 0 || gb.NumSelfLoops() > 0) {
		log.Fatal("-self-loops with -triangles or -per-vertex requires loop-free input factors (the +I is added internally)")
	}
	al := groundtruth.NewFactor(ga.WithFullSelfLoops())
	bl := groundtruth.NewFactor(gb.WithFullSelfLoops())
	if *distances || *closeness > 0 || *perVertex != "" {
		al, bl = al.WithDistances(), bl.WithDistances()
	}
	looped := []*groundtruth.Factor{al, bl}
	if *perVertex != "" {
		printPerVertex(fs, looped, from, count)
		return
	}
	fmt.Printf("factors: A=%v B=%v\n", ga, gb)
	fmt.Printf("product: C = (A+I) ⊗ (B+I), n_C = %d, m_C = %d\n",
		nC, must(groundtruth.ChainNumEdges(looped)))
	if *degrees {
		printHistogram("\ndegree histogram (d_C = d_A ⊗ d_B):", must(groundtruth.ChainDegreeHistogram(looped)))
	}
	if *triangles {
		fmt.Printf("\nglobal triangles τ_C = %d (Cor. 1 aggregate)\n", must(groundtruth.ChainGlobalTrianglesFullLoops(fs)))
		counts := map[int64]int64{}
		for i := int64(0); i < a.N(); i++ {
			for k := int64(0); k < b.N(); k++ {
				counts[must(groundtruth.ChainVertexTrianglesFullLoopsAt(fs, []int64{i, k}))]++
			}
		}
		printHistogram("vertex triangle-count histogram:", counts)
	}
	if *distances {
		fmt.Printf("\ndiameter(C) = %d (Cor. 3)\n", groundtruth.ChainDiameter(looped))
		printHistogram("eccentricity histogram (Cor. 4):", must(groundtruth.ChainEccentricityHistogram(looped)))
	}
	if *closeness > 0 {
		n := min(int64(*closeness), nC)
		fmt.Printf("\ncloseness centrality (Thm. 4, compressed form):\n")
		for p := int64(0); p < n; p++ {
			fmt.Printf("  ζ_C(%d) = %.4f\n", p, groundtruth.ChainClosenessAt(looped, must(groundtruth.ChainCoordsOf(looped, p))))
		}
	}
}

// must returns v, or exits naming err (a count that overflows int64).
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// printHistogram renders a law's value → count table under its title.
func printHistogram(title string, counts map[int64]int64) {
	fmt.Println(title)
	fmt.Print(analytics.HistogramOf(counts).Render(40))
}

// printPerVertex writes the CSV feature table of (A+I) ⊗ (B+I) for
// product vertices [from, from+count), clipped to n_C: fs holds the
// loop-free factors the triangle laws take, looped their +I forms with
// the distance tier.
func printPerVertex(fs, looped []*groundtruth.Factor, from, count int64) {
	ix := core.MustChainIndex(fs[0].N(), fs[1].N()) // n_C fits: the caller checked it
	nC := ix.NumVertices()
	if from < 0 || from >= nC {
		log.Fatalf("-per-vertex FROM %d outside [0,%d)", from, nC)
	}
	hi := nC // from + count may overflow; compare against what is left
	if count < nC-from {
		hi = from + count
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "vertex,i,k,degree,triangles,clustering,eccentricity,closeness")
	coords := make([]int64, 2)
	for p := from; p < hi; p++ {
		ix.SplitInto(p, coords)
		deg := groundtruth.ChainDegreeAt(looped, coords)
		tri := must(groundtruth.ChainVertexTrianglesFullLoopsAt(fs, coords))
		// Clustering of the looped product vertex from its own degree and
		// triangle count, the loop excluded from both by convention.
		cc := math.NaN()
		if d := deg - 1; d >= 2 {
			cc = 2 * float64(tri) / float64(d*(d-1))
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6g,%d,%.6g\n", p, coords[0], coords[1], deg, tri, cc,
			groundtruth.ChainEccentricityAt(looped, coords), groundtruth.ChainClosenessAt(looped, coords))
	}
}
