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
// Every value is a row of groundtruth.Laws, resolved before anything is
// printed: a law whose hypothesis the factors miss is refused in one
// line, exit status 1. The histograms fold the factors' histograms —
// Cor. 1's under -self-loops over their joint (t, d) histograms — so
// nothing n_C long is built. -per-vertex writes only a CSV feature table
// — the introduction's "local graph topological properties as features
// in machine learning tasks" — one row per product vertex p in
// [FROM, FROM+COUNT):
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
	distances := flag.Bool("distances", false, "print eccentricity histogram and diameter (needs full self loops: -self-loops adds them)")
	closeness := flag.Int("closeness", 0, "print closeness centrality for the first N product vertices (needs full self loops: -self-loops adds them)")
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
	ga, err := graph.LoadUndirected(*aPath)
	if err != nil {
		log.Fatalf("loading A: %v", err)
	}
	gb, err := graph.LoadUndirected(*bPath)
	if err != nil {
		log.Fatalf("loading B: %v", err)
	}
	gs := []*graph.Graph{ga, gb}
	src := groundtruth.Summaries(gs)
	// resolve finds a row for the product asked, or exits naming the
	// hypothesis the factors miss. Every row is resolved before anything
	// prints.
	resolve := func(prop string, shape groundtruth.Shape) row {
		l, fs, err := groundtruth.Resolve(prop, shape, gs, *selfLoops, src)
		if err != nil {
			log.Fatal(err)
		}
		return row{l, fs}
	}
	if *perVertex != "" {
		printPerVertex(resolve, from, count)
		return
	}
	var tau, tri, diam, ecc, zeta row
	deg := resolve("degree", groundtruth.Histogram) // its factors are the product's own, which n_C and m_C read
	if *triangles {
		tau, tri = resolve("triangles", groundtruth.Global), resolve("triangles", groundtruth.Histogram)
	}
	if *distances {
		diam, ecc = resolve("diameter", groundtruth.Global), resolve("eccentricity", groundtruth.Histogram)
	}
	if *closeness > 0 {
		zeta = resolve("closeness", groundtruth.PerVertex)
	}

	nC := must(groundtruth.ChainNumVertices(deg.fs))
	product, tauLine := "A ⊗ B", "global triangles τ_C = 6·τ_A·τ_B = %d\n"
	if *selfLoops {
		product, tauLine = "(A+I) ⊗ (B+I)", "global triangles τ_C = %d (Cor. 1 aggregate)\n"
	}
	fmt.Printf("factors: A=%v B=%v\n", ga, gb)
	fmt.Printf("product: C = %s, n_C = %d, m_C = %d\n", product, nC, must(groundtruth.ChainNumEdges(deg.fs)))
	if *degrees {
		printHistogram("\ndegree histogram (d_C = d_A ⊗ d_B):", deg.at(nil))
	}
	if *triangles {
		fmt.Printf("\n"+tauLine, tau.at(nil))
		printHistogram("vertex triangle-count histogram:", tri.at(nil))
	}
	if *distances {
		fmt.Printf("\ndiameter(C) = %d (Cor. 3)\n", diam.at(nil))
		printHistogram("eccentricity histogram (Cor. 4):", ecc.at(nil))
	}
	if *closeness > 0 {
		n := min(int64(*closeness), nC)
		fmt.Printf("\ncloseness centrality (Thm. 4, compressed form):\n")
		ix := must(core.NewChainIndex([]int64{zeta.fs[0].N(), zeta.fs[1].N()}))
		for p := int64(0); p < n; p++ {
			fmt.Printf("  ζ_C(%d) = %.4f\n", p, zeta.at(ix.Split(p)))
		}
	}
}

// row is a resolved law and the factors it reads.
type row struct {
	law *groundtruth.Law
	fs  []*groundtruth.Factor
}

// at evaluates the row at p, exiting on a count that overflows int64.
func (r row) at(p []int64) any { return must(r.law.Eval(r.fs, p, nil)) }

// must returns v, or exits naming err (a count that overflows int64).
func must[T any](v T, err error) T {
	if err != nil {
		log.Fatal(err)
	}
	return v
}

// printHistogram renders a law's value → count table under its title.
func printHistogram(title string, counts any) {
	fmt.Println(title)
	fmt.Print(analytics.HistogramOf(counts.(map[int64]int64)).Render(40))
}

// printPerVertex writes the CSV feature table of (A+I) ⊗ (B+I) for
// product vertices [from, from+count), clipped to n_C, from the
// per-vertex rows resolve finds.
func printPerVertex(resolve func(string, groundtruth.Shape) row, from, count int64) {
	deg, tri := resolve("degree", groundtruth.PerVertex), resolve("triangles", groundtruth.PerVertex)
	ecc, zeta := resolve("eccentricity", groundtruth.PerVertex), resolve("closeness", groundtruth.PerVertex)
	ix := must(core.NewChainIndex([]int64{deg.fs[0].N(), deg.fs[1].N()}))
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
		d, t := deg.at(coords).(int64), tri.at(coords).(int64)
		// Clustering of the looped product vertex from its own degree and
		// triangle count, the loop excluded from both by convention.
		cc := math.NaN()
		if d := d - 1; d >= 2 {
			cc = 2 * float64(t) / float64(d*(d-1))
		}
		fmt.Fprintf(w, "%d,%d,%d,%d,%d,%.6g,%d,%.6g\n", p, coords[0], coords[1], d, t, cc, ecc.at(coords), zeta.at(coords))
	}
}
