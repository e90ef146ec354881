package main

import (
	"fmt"
	"io"
	"math"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
	"kronlab/internal/validate"
)

// runClustering reproduces Thm. 1 and Thm. 2: the vertex clustering
// factor θ_p is confined to [1/3, 1) — a controlled law — while the edge
// factor φ_pq has no lower bound, shown with a disassortative family
// where φ → 0.
func runClustering(w io.Writer) error {
	a := connected(gen.PrefAttach(40, 3, 21))
	b := connected(gen.PrefAttach(40, 3, 22))
	fa, fb := groundtruth.NewFactor(a, 0), groundtruth.NewFactor(b, 0)

	// θ distribution over product vertices.
	thetaHist := map[int64]int64{} // bucketed by percent
	minTheta, maxTheta := math.Inf(1), math.Inf(-1)
	for i := int64(0); i < fa.N(); i++ {
		for k := int64(0); k < fb.N(); k++ {
			if fa.Deg[i] < 2 || fb.Deg[k] < 2 {
				continue
			}
			th := groundtruth.Theta(fa.Deg[i], fb.Deg[k])
			minTheta = math.Min(minTheta, th)
			maxTheta = math.Max(maxTheta, th)
			thetaHist[int64(th*20)]++ // 5%-wide buckets
		}
	}
	fmt.Fprintf(w, "θ_p over all product vertices of PrefAttach(40,3)⊗PrefAttach(40,3):\n")
	fmt.Fprintf(w, "min = %.4f, max = %.4f — confined to [1/3, 1) as Thm. 1 proves. %s\n\n",
		minTheta, maxTheta, check(minTheta >= 1.0/3-1e-12 && maxTheta < 1))
	histogramLines(w, "θ_p histogram (bucket = 0.05, label = bucket index)", thetaHist, 40)

	// φ on a disassortative construction: stars glued tip-to-tip have
	// min-degree-1 ends; use double-stars so all degrees ≥ 2 but highly
	// disassortative, then measure the φ spread.
	ds := doubleStar(24)
	fd := groundtruth.NewFactor(ds, 0)
	minPhi, maxPhi := math.Inf(1), math.Inf(-1)
	ds.Arcs(func(u, v int64) bool {
		if u == v {
			return true
		}
		for _, kl := range [][2]int64{{0, 1}} { // the heavy middle edge of the other factor
			phi := groundtruth.Phi(fd.Deg[u], fd.Deg[v], fd.Deg[kl[0]], fd.Deg[kl[1]])
			minPhi = math.Min(minPhi, phi)
			maxPhi = math.Max(maxPhi, phi)
		}
		return true
	})
	fmt.Fprintf(w, "\nφ_pq on a disassortative double-star factor (Thm. 2's counterexample\n")
	fmt.Fprintf(w, "family): min = %.4f, max = %.4f — the minimum falls toward 0 as hub\n", minPhi, maxPhi)
	fmt.Fprintf(w, "degree grows, so edge clustering admits NO controlled lower bound:\n\n")
	var rows [][]string
	for _, hub := range []int64{4, 16, 64, 256} {
		phi := groundtruth.Phi(2, hub, hub, 2)
		rows = append(rows, []string{fmt.Sprint(hub), fmt.Sprintf("%.5f", phi)})
	}
	table(w, []string{"hub degree d", "φ(2, d, d, 2)"}, rows)

	// Thm. 1's equality, with every other law of A⊗A, on a materialized
	// product.
	small := connected(gen.PrefAttach(14, 2, 23))
	c, err := core.Product(small, small)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nThm. 1's equality η_C(p) = θ_p·η_A(i)·η_B(k), with every other law of\n")
	fmt.Fprintf(w, "A⊗A, held by validate.Run to the materialized product at every vertex\n")
	fmt.Fprintf(w, "and arc (A = PrefAttach(14,2)):\n\n")
	return validated(w, claim{"A⊗A", []*graph.Graph{small, small}, c, validate.Options{Samples: math.MaxInt}})
}

// doubleStar builds two hubs joined by an edge, each with (n−2)/2 leaves,
// leaves also chained to their neighbor leaf so every degree ≥ 2.
func doubleStar(n int64) *graph.Graph {
	var edges []graph.Edge
	edges = append(edges, graph.Edge{U: 0, V: 1})
	half := (n - 2) / 2
	for i := int64(0); i < half; i++ {
		leaf := 2 + i
		edges = append(edges, graph.Edge{U: 0, V: leaf})
		next := 2 + (i+1)%half
		edges = append(edges, graph.Edge{U: leaf, V: next})
	}
	for i := int64(0); i < n-2-half; i++ {
		leaf := 2 + half + i
		edges = append(edges, graph.Edge{U: 1, V: leaf})
		next := 2 + half + (i+1)%(n-2-half)
		edges = append(edges, graph.Edge{U: leaf, V: next})
	}
	g, err := graph.NewUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}
