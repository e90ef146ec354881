// Command decorate emits a per-vertex ground-truth feature table for the
// Kronecker product C = (A+I) ⊗ (B+I) — the paper's introduction use
// case: "incorporating various local graph topological properties as
// features in machine learning tasks". Every feature is computed from the
// factors alone (degree, triangle count, clustering coefficient,
// eccentricity, closeness centrality), so decorating even a billion-
// vertex product streams at factor cost.
//
// Usage:
//
//	decorate -a A.txt -b B.txt [-from 0] [-count 1000] [-format csv|tsv]
//
// The output has one row per product vertex p in [from, from+count):
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

	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("decorate: ")

	aPath := flag.String("a", "", "edge-list file for factor A (required)")
	bPath := flag.String("b", "", "edge-list file for factor B (required)")
	from := flag.Int64("from", 0, "first product vertex to decorate")
	count := flag.Int64("count", 1000, "number of product vertices to decorate")
	format := flag.String("format", "csv", "output format: csv or tsv")
	flag.Parse()

	if *aPath == "" || *bPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	if *count < 0 {
		log.Printf("-count %d is negative", *count)
		os.Exit(2)
	}
	sep := ","
	switch *format {
	case "csv":
	case "tsv":
		sep = "\t"
	default:
		log.Fatalf("unknown format %q", *format)
	}

	ga, err := graph.LoadUndirected(*aPath)
	if err != nil {
		log.Fatalf("loading A: %v", err)
	}
	gb, err := graph.LoadUndirected(*bPath)
	if err != nil {
		log.Fatalf("loading B: %v", err)
	}
	if ga.NumSelfLoops() > 0 || gb.NumSelfLoops() > 0 {
		log.Fatal("factors must be loop-free; the +I is added internally (Cor. 1/2 hypothesis)")
	}

	// Loop-free factors feed the triangle formulas; looped factors, with
	// their distance tier, feed the distance formulas (Thm. 3 hypothesis).
	fa, fb := groundtruth.NewFactor(ga), groundtruth.NewFactor(gb)
	fal := groundtruth.NewFactor(ga.WithFullSelfLoops()).WithDistances()
	fbl := groundtruth.NewFactor(gb.WithFullSelfLoops()).WithDistances()
	looped := []*groundtruth.Factor{fal, fbl}

	ix, err := core.NewChainIndex([]int64{fa.N(), fb.N()})
	if err != nil {
		log.Fatal(err)
	}
	nC := ix.NumVertices()
	lo := *from
	if lo < 0 || lo >= nC {
		log.Fatalf("-from %d outside [0,%d)", lo, nC)
	}
	hi := nC // lo + count may overflow; compare against what is left
	if *count < nC-lo {
		hi = lo + *count
	}

	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintf(w, "vertex%si%sk%sdegree%striangles%sclustering%seccentricity%scloseness\n",
		sep, sep, sep, sep, sep, sep, sep)
	coords := make([]int64, 2)
	for p := lo; p < hi; p++ {
		ix.SplitInto(p, coords)
		deg := groundtruth.ChainDegreeAt(looped, coords) // (A+I)⊗(B+I) degree
		tri := groundtruth.VertexTrianglesFullLoopsAt(fa, fb, p)
		// Clustering of the looped product vertex, from its own degree
		// and triangle count (loops excluded from both by convention).
		simpleDeg := deg - 1 // neighbors excluding the self loop
		cc := math.NaN()
		if simpleDeg >= 2 {
			cc = 2 * float64(tri) / float64(simpleDeg*(simpleDeg-1))
		}
		ecc := groundtruth.ChainEccentricityAt(looped, coords)
		clo := groundtruth.ClosenessCompressedAt(fal, fbl, p)
		fmt.Fprintf(w, "%d%s%d%s%d%s%d%s%d%s%.6g%s%d%s%.6g\n",
			p, sep, coords[0], sep, coords[1], sep, deg, sep, tri, sep, cc, sep, ecc, sep, clo)
	}
}
