package main

import (
	"fmt"
	"io"
	"math"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/validate"
)

// runDiameter reproduces Sec. V-C: diameter control. A is a generated
// graph with full self loops and a known large diameter (a ring); B is a
// "real-world-like" undirected graph. Cor. 5 sandwiches diam(C) in
// [max(diam_A, diam_B), max+1], so products with a prescribed diameter
// can be constructed. With self loops on both factors (Cor. 3) the
// diameter is exactly max, which validate.Run checks with every other
// law of (A+I)⊗(B+I).
func runDiameter(w io.Writer) error {
	b := connected(gen.MustRMAT(gen.Graph500Params(5, 55))) // small-world B
	fbLoop := groundtruth.NewFactor(b.WithFullSelfLoops(), groundtruth.Distances)
	diamB := analytics.Diameter(b) // connected: never Unreachable

	var rows [][]string
	var claims []claim
	for _, n := range []int64{8, 16, 32, 64} {
		ring := gen.Ring(n)
		fr := groundtruth.NewFactor(ring.WithFullSelfLoops(), groundtruth.Distances)

		// Cor. 3 (both factors looped): exact equality, checked below.
		c3, err := core.Product(ring.WithFullSelfLoops(), b.WithFullSelfLoops())
		if err != nil {
			return err
		}
		claims = append(claims, claim{fmt.Sprintf("(Ring(%d)+I)⊗(B+I)", n), []*graph.Graph{ring, b}, c3, validate.Options{SelfLoops: true, Samples: math.MaxInt}})

		// Cor. 5 (A looped, B bare): the sandwich around the factors' own
		// diameters, max{diam_A, diam_B} ≤ diam(C) ≤ max{diam_A, diam_B} + 1.
		c5, err := core.Product(fr.G, b)
		if err != nil {
			return err
		}
		exact5 := analytics.Diameter(c5)
		lo := max(fr.Diam, diamB)
		hi := lo + 1

		rows = append(rows, []string{
			fmt.Sprintf("Ring(%d)+I", n),
			fmt.Sprint(fr.Diam),
			fmt.Sprintf("[%d,%d] ∋ %d %s", lo, hi, exact5, check(exact5 >= lo && exact5 <= hi)),
		})
	}
	fmt.Fprintf(w, "B = RMAT scale-5 LCC (%v), diam(B+I) = %d. A sweeps ring sizes —\n", b, fbLoop.Diam)
	fmt.Fprintf(w, "the product diameter tracks the ring's, demonstrating control:\n\n")
	table(w, []string{"A", "diam(A)", "Cor. 5: diam(A⊗B) within bounds"}, rows)
	fmt.Fprintf(w, "\nCor. 3: diam((A+I)⊗(B+I)) = max(diam_A, diam_B) exactly, held by\n")
	fmt.Fprintf(w, "validate.Run with every other law at every vertex and arc:\n\n")
	return validated(w, claims...)
}
