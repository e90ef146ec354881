// Command experiments regenerates every table and figure of the paper's
// evaluation (deliverable d): the Sec. I scaling-law table, the Sec. III
// generator cost model and Rem. 1 weak-scaling comparison, the Cor. 1/2
// triangle formulas, the Thm. 1/2 clustering laws, the Fig. 1 gnutella
// eccentricity experiment, the Thm. 4 closeness forms, the Cor. 5
// diameter-control recipe, the Fig. 2 community-density experiment, the
// Ex. 1 clique construction, and the Def. 8 edge-rejection family.
//
// Usage:
//
//	experiments -exp all            # run everything (writes markdown)
//	experiments -exp eccentricity   # one experiment
//	experiments -list               # list experiment ids
//	experiments -exp all -out EXPERIMENTS.md
//
// Output is markdown, designed to be pasted into EXPERIMENTS.md; the
// repository's committed EXPERIMENTS.md is generated this way.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"kronlab/internal/graph"
	"kronlab/internal/validate"
)

// experiment is one regenerable paper artifact.
type experiment struct {
	id    string
	title string
	run   func(w io.Writer) error
}

// registry lists experiments in paper order.
var registry = []experiment{
	{"scaling-laws", "E1: Sec. I scaling-law table", runScalingLaws},
	{"generator", "E2: Sec. III distributed generator cost", runGenerator},
	{"weak-scaling", "E3: Rem. 1 — 1D vs 2D partitioning scalability", runWeakScaling},
	{"triangles", "E4: Cor. 1/2 triangle ground truth (full self loops)", runTriangles},
	{"clustering", "E5: Thm. 1/2 clustering-coefficient scaling laws", runClustering},
	{"eccentricity", "E6: Fig. 1 — gnutella eccentricity experiment", runEccentricity},
	{"closeness", "E7: Thm. 4 closeness centrality, direct vs compressed", runCloseness},
	{"diameter", "E8: Cor. 5 — diameter control", runDiameter},
	{"community", "E9: Fig. 2 — community density experiment", runCommunity},
	{"cliques", "E10: Ex. 1 — disjoint cliques and SBM squaring", runCliques},
	{"rejection", "E11: Def. 8 — probabilistic edge rejection", runRejection},
	{"spectral", "E12 (extension): spectral exploitability of the Kronecker structure", runSpectral},
	{"extensions", "E13 (extension): power-law ground truth", runExtensions},
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("experiments: ")
	exp := flag.String("exp", "", "experiment id to run, or \"all\"")
	out := flag.String("out", "", "write output to this file instead of stdout")
	list := flag.Bool("list", false, "list experiment ids and exit")
	flag.Parse()

	if *list {
		for _, e := range registry {
			fmt.Printf("%-14s %s\n", e.id, e.title)
		}
		return
	}
	if *exp == "" {
		flag.Usage()
		os.Exit(2)
	}

	w := io.Writer(os.Stdout)
	var f *os.File
	if *out != "" {
		var err error
		if f, err = os.Create(*out); err != nil {
			log.Fatal(err)
		}
		w = f
	}

	var toRun []experiment
	if *exp == "all" {
		toRun = registry
		fmt.Fprintf(w, "# EXPERIMENTS — paper vs measured\n\n")
		fmt.Fprintf(w, "Generated by `go run ./cmd/experiments -exp all`.\n")
		fmt.Fprintf(w, "Every table and figure of the paper's evaluation, regenerated\n")
		fmt.Fprintf(w, "on synthetic stand-ins for the paper's datasets (see DESIGN.md §2).\n\n")
	} else {
		for _, e := range registry {
			if e.id == *exp {
				toRun = []experiment{e}
			}
		}
		if toRun == nil {
			log.Fatalf("unknown experiment %q; use -list", *exp)
		}
	}
	var failedIn []string
	for _, e := range toRun {
		start, before := time.Now(), failures
		fmt.Fprintf(w, "## %s\n\n", e.title)
		if err := e.run(w); err != nil {
			log.Fatalf("%s: %v", e.id, err)
		}
		fmt.Fprintf(w, "\n_(experiment `%s` ran in %v)_\n\n", e.id, time.Since(start).Round(time.Millisecond))
		if failures > before {
			failedIn = append(failedIn, e.id)
		}
	}
	if f != nil {
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
	}
	if failures > 0 {
		log.Fatalf("%d checks failed, in %v", failures, failedIn)
	}
}

// table renders a compact markdown table.
func table(w io.Writer, header []string, rows [][]string) {
	writeRow := func(cells []string) {
		fmt.Fprint(w, "|")
		for _, c := range cells {
			fmt.Fprintf(w, " %s |", c)
		}
		fmt.Fprintln(w)
	}
	writeRow(header)
	sep := make([]string, len(header))
	for i := range sep {
		sep[i] = "---"
	}
	writeRow(sep)
	for _, r := range rows {
		writeRow(r)
	}
}

// claim is a materialized product and the loop-free factors it claims to
// be the product of, named as a validation table's C column shows it.
type claim struct {
	name string
	gs   []*graph.Graph
	c    *graph.Graph
	opts validate.Options
}

// validated holds each claim to its factors' laws through validate.Run
// and renders every check of every claim as one table.
func validated(w io.Writer, claims ...claim) error {
	var cells [][]string
	for _, cl := range claims {
		rep, err := validate.Run(cl.gs, cl.c, cl.opts)
		if err != nil {
			return err
		}
		for _, ch := range rep.Checks {
			cells = append(cells, []string{cl.name, ch.Name, strings.ReplaceAll(ch.Law, "|", "\\|"), ch.Expected, ch.Actual, check(ch.OK)})
		}
	}
	table(w, []string{"C", "Check", "Law", "Predicted", "Measured", "OK"}, cells)
	return nil
}

// failures counts the checks that failed, so that the run exits 1 after
// writing every table.
var failures int

// check renders a pass/fail marker, and records a failure.
func check(ok bool) string {
	if ok {
		return "✓"
	}
	failures++
	return "✗ FAIL"
}
