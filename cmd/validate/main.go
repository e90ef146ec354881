// Command validate checks a claimed Kronecker product against its factors
// using the ground-truth battery of internal/validate — the paper's HPC
// validation workflow as a tool: generate C with the system under test,
// then
//
//	validate -a A.txt -b B.txt -c C.txt [-self-loops] [-samples N]
//
// Exit status 0 means every check passed; 1 means at least one ground
// truth was violated (the report on stdout names the first discrepancy).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"kronlab/internal/graph"
	"kronlab/internal/validate"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("validate: ")

	aPath := flag.String("a", "", "edge-list file for factor A (required)")
	bPath := flag.String("b", "", "edge-list file for factor B (required)")
	cPath := flag.String("c", "", "edge-list file for the claimed product C (required)")
	selfLoops := flag.Bool("self-loops", false, "C claims to be (A+I) ⊗ (B+I)")
	samples := flag.Int("samples", 64, "spot-check sample count")
	skipDist := flag.Bool("skip-distances", false, "skip BFS-based distance spot checks")
	flag.Parse()

	if *aPath == "" || *bPath == "" || *cPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	load := func(path string) *graph.Graph {
		g, err := graph.LoadUndirected(path)
		if err != nil {
			log.Fatalf("loading %s: %v", path, err)
		}
		return g
	}
	a, b, c := load(*aPath), load(*bPath), load(*cPath)

	rep, err := validate.Run([]*graph.Graph{a, b}, c, validate.Options{
		SelfLoops:     *selfLoops,
		Samples:       *samples,
		SkipDistances: *skipDist,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(rep)
	if !rep.OK() {
		fmt.Printf("FAILED: %d of %d checks\n", len(rep.Failures()), len(rep.Checks))
		os.Exit(1)
	}
	fmt.Printf("OK: all %d checks passed\n", len(rep.Checks))
}
