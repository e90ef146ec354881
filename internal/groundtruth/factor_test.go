package groundtruth

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestSummariesBuildTheTiersAsked: a Source builds each summary it is
// asked for once, of the +I form when asked, holding exactly the tiers
// asked, and two summaries of one factor share no tier: each is built
// from scratch. Every summary, +I ones too, reads the factor itself.
func TestSummariesBuildTheTiersAsked(t *testing.T) {
	g := gen.PrefAttach(12, 2, 5)
	src := Summaries([]*graph.Graph{g})
	for _, plusI := range []bool{false, true} {
		seen := map[*int64]Tiers{}
		for _, tiers := range []Tiers{0, Triangles, Distances, Triangles | Distances} {
			f, err := src(0, plusI, tiers)
			if err != nil {
				t.Fatal(err)
			}
			if again, _ := src(0, plusI, tiers); again != f {
				t.Errorf("plusI=%v tiers=%b: a second ask built the summary again", plusI, tiers)
			}
			if f.tiers() != tiers {
				t.Errorf("plusI=%v: asked for tiers %b, built %b", plusI, tiers, f.tiers())
			}
			if loops := f.loops; (loops == f.N()) != plusI {
				t.Errorf("plusI=%v: summary of a graph with %d loops", plusI, loops)
			}
			if other, ok := seen[&f.Deg[0]]; ok {
				t.Errorf("plusI=%v: tiers %b share their degrees with tiers %b", plusI, tiers, other)
			}
			seen[&f.Deg[0]] = tiers
			if f.G != g {
				t.Errorf("plusI=%v tiers=%b: the summary reads a copy of the factor", plusI, tiers)
			}
		}
	}
}

// TestSummariesShareARepeatedFactor: over [g, g, g], a power's factor
// list, a Source builds one summary per (plusI, tiers) and returns it at
// every position.
func TestSummariesShareARepeatedFactor(t *testing.T) {
	g := gen.PrefAttach(12, 2, 5)
	src := Summaries([]*graph.Graph{g, g, g})
	for _, plusI := range []bool{false, true} {
		for _, tiers := range []Tiers{0, Triangles, Distances, Triangles | Distances} {
			first, _ := src(0, plusI, tiers)
			for d := 1; d < 3; d++ {
				if f, _ := src(d, plusI, tiers); f != first {
					t.Errorf("plusI=%v tiers=%b: position %d has a summary of its own", plusI, tiers, d)
				}
			}
		}
	}
}

// TestDistanceTierMatchesBruteForce: the distance tier's ε, by the bound
// rule, is analytics.Eccentricities — one sweep a vertex — of g, or of
// g.WithFullSelfLoops() under the +I, and its diameter their fold from
// 0: 0 on the empty graph. Over the empty graph, K₁ with and without its
// loop, stars, paths, disconnected graphs, preferential-attachment graphs
// with and without full loops, and seeded random graphs with some loops.
func TestDistanceTierMatchesBruteForce(t *testing.T) {
	undirected := func(n int64, edges ...graph.Edge) *graph.Graph {
		g, err := graph.NewUndirected(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	graphs := []*graph.Graph{
		undirected(0), undirected(1), undirected(1, graph.Edge{}),
		gen.Star(6), gen.Path(2), gen.Path(9), gen.Ring(7), gen.Grid(3, 4),
		undirected(4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3}),
		undirected(3, graph.Edge{U: 0, V: 1}),
		gen.PrefAttach(60, 1, 3), gen.PrefAttach(80, 2, 4),
	}
	for _, g := range graphs[3:] {
		graphs = append(graphs, g.WithFullSelfLoops())
	}
	rng := rand.New(rand.NewSource(6901))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Int63n(16)
		var edges []graph.Edge
		for m := rng.Int63n(3 * n); m > 0; m-- {
			edges = append(edges, graph.Edge{U: rng.Int63n(n), V: rng.Int63n(n)})
		}
		graphs = append(graphs, undirected(n, edges...))
	}
	for gi, g := range graphs {
		for _, plusI := range []bool{false, true} {
			h := g
			if plusI {
				h = g.WithFullSelfLoops()
			}
			want := analytics.Eccentricities(h)
			var diam int64
			for _, e := range want {
				diam = analytics.MaxHops(diam, e)
			}
			f := Summarize(g, plusI, Distances)
			if !reflect.DeepEqual(f.Ecc, want) || f.Diam != diam {
				t.Fatalf("graph %d (n=%d, %d loops) plusI=%v: ε %v diam %d, want %v diam %d", gi, g.NumVertices(), g.NumSelfLoops(), plusI, f.Ecc, f.Diam, want, diam)
			}
		}
	}
}

// TestProfileOfAHopRow holds profile to its hop row: R[h] counts the
// row's finite entries ≤ h, the diagonal at hop 1 (a loop) or 2 (a
// neighbor), and ends at the row's largest finite hop.
func TestProfileOfAHopRow(t *testing.T) {
	isolated, err := graph.NewUndirected(3, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
		want [][]int64
	}{
		{"P₃", gen.Path(3), [][]int64{{0, 1, 3}, {0, 2, 3}, {0, 1, 3}}},
		{"K₃+I", gen.Clique(3).WithFullSelfLoops(), [][]int64{{0, 3}, {0, 3}, {0, 3}}},
		{"K₂ and an isolated vertex", isolated, [][]int64{{0, 1, 2}, {0, 1, 2}, {0}}},
		{"K₂+I and a looped vertex", isolated.WithFullSelfLoops(), [][]int64{{0, 2}, {0, 2}, {0, 1}}},
	} {
		f := NewFactor(c.g, 0)
		for i, want := range c.want {
			if got := profile(f.hops(int64(i))); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: R_%d = %v, want %v", c.name, i, got, want)
			}
		}
	}
}

// TestSummarizePlusIMatchesTheCopy is the +I flag's row-by-row oracle:
// every row of Laws gives the same value, or the same refusal, over
// Summarize(g, true, tiers) as over NewFactor(g.WithFullSelfLoops(),
// tiers) — at every vertex, pair and histogram — on chains of two and
// three factors with no loops, some loops and all loops (an isolated
// vertex and K₁ among them), and on the disconnected (2K₂+I)⊗(P₃+I).
// The direct closeness sum is held to it on the two-factor chains.
func TestSummarizePlusIMatchesTheCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(661))
	undirected := func(n int64, edges ...graph.Edge) *graph.Graph {
		g, err := graph.NewUndirected(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	withLoopsAt := func(g *graph.Graph, vs ...int64) *graph.Graph {
		edges := g.ArcList()
		for _, v := range vs {
			edges = append(edges, graph.Edge{U: v, V: v})
		}
		return undirected(g.NumVertices(), edges...)
	}
	loopFree := func() *graph.Graph { return randomConnectedLoopFree(rng, 5) }
	someLoops := withLoopsAt(gen.Path(4), 0, 2)
	isolated := undirected(3, graph.Edge{U: 0, V: 1}, graph.Edge{U: 1, V: 1})
	k1 := undirected(1)
	twoK2 := undirected(4, graph.Edge{U: 0, V: 1}, graph.Edge{U: 2, V: 3})
	for _, gs := range [][]*graph.Graph{
		{loopFree(), someLoops},
		{loopFree().WithFullSelfLoops(), isolated},
		{loopFree(), withLoopsAt(loopFree(), 1)},
		{twoK2, gen.Path(3)},
		{loopFree(), someLoops, loopFree().WithFullSelfLoops()},
		{k1, isolated, loopFree()},
		{loopFree(), loopFree(), loopFree()},
	} {
		for _, l := range Laws {
			flagged, copied := make([]*Factor, len(gs)), make([]*Factor, len(gs))
			for d, g := range gs {
				flagged[d], copied[d] = Summarize(g, true, l.Tiers), NewFactor(g.WithFullSelfLoops(), l.Tiers)
			}
			ci := chainIndexFor(t, copied)
			same := func(p, q []int64) {
				got, errGot := l.Eval(flagged, p, q)
				want, errWant := l.Eval(copied, p, q)
				if g, w := fmt.Sprint(got, errGot), fmt.Sprint(want, errWant); g != w {
					t.Errorf("%s (%s) at %v, %v over %d factors: %s over the flag, %s over the copy", l.Name, l.Formula, p, q, len(gs), g, w)
				}
			}
			n := ci.NumVertices()
			switch l.Shape {
			case Global, Histogram:
				same(nil, nil)
			case PerVertex:
				for p := range n {
					same(ci.Split(p), nil)
				}
			case PerArc, PerPair:
				for p := range n {
					for q := range n {
						same(ci.Split(p), ci.Split(q))
					}
				}
			}
			if len(gs) == 2 && l == lawDiameter {
				for p := range n {
					if got, want := ClosenessAt(flagged[0], flagged[1], p), ClosenessAt(copied[0], copied[1], p); got != want {
						t.Errorf("direct closeness at %d: %v over the flag, %v over the copy", p, got, want)
					}
				}
			}
		}
	}
}

// TestDistanceLawsShareOneFactor runs every distance law from several
// goroutines on one shared factor with the distance tier, as kronserve's
// cache shares it across requests. The laws only read the factor, so
// go test -race stays quiet; a law that built the tier in place would
// race here, because no goroutine touches the factor before they start.
func TestDistanceLawsShareOneFactor(t *testing.T) {
	g := randomConnectedLoopFree(rand.New(rand.NewSource(503)), 9).WithFullSelfLoops()
	ref := NewFactor(g, Distances)
	want := []*Factor{ref, ref}
	f := NewFactor(g, Distances)
	fs := []*Factor{f, f}
	ci := chainIndexFor(t, want)
	wantHist, _ := ChainEccentricityHistogram(want)

	const workers = 4
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := diameterOf(fs); d != diameterOf(want) {
				t.Errorf("diameter %d, want %d", d, diameterOf(want))
			}
			if h, _ := ChainEccentricityHistogram(fs); !reflect.DeepEqual(h, wantHist) {
				t.Errorf("ε histogram %v, want %v", h, wantHist)
			}
			for p := w; p < ci.NumVertices(); p += workers {
				c, c0 := ci.Split(p), ci.Split(0)
				if e := eccentricityAt(fs, c); e != eccentricityAt(want, c) {
					t.Errorf("ε(%d) = %d, want %d", p, e, eccentricityAt(want, c))
				}
				if h := hopsRow(fs, c)(c0); h != hopsRow(want, c)(c0) {
					t.Errorf("hops(%d, 0) = %d, want %d", p, h, hopsRow(want, c)(c0))
				}
				if z := ChainClosenessAt(fs, c); z != ChainClosenessAt(want, c) {
					t.Errorf("ζ(%d) = %v, want %v", p, z, ChainClosenessAt(want, c))
				}
			}
		}()
	}
	wg.Wait()
}

// refusesWithout hands every row that reads tier factors built without
// it: each must refuse naming the tier and itself, where reading the
// missing tier would answer a diameter of 0 or dereference nil triangles.
func refusesWithout(t *testing.T, tier Tiers, name string) {
	t.Helper()
	for _, l := range Laws {
		if l.Tiers&tier == 0 {
			continue
		}
		g := gen.Path(3)
		if l.Takes == FullLoops {
			g = g.WithFullSelfLoops()
		}
		f := NewFactor(g, l.Tiers&^tier)
		// (0,0)–(1,1) is an arc of P₃⊗P₃, so a per-arc row reaches the tiers.
		_, err := l.Eval([]*Factor{f, f}, []int64{0, 0}, []int64{1, 1})
		if err == nil || !strings.Contains(err.Error(), "needs the "+name+" tier") || !strings.Contains(err.Error(), "("+l.Name+")") {
			t.Errorf("%s without the %s tier: %v, want a refusal naming the tier and the row", l.Name, name, err)
		}
	}
}

// TestDistanceLawsNeedTheTier: the rows that read the distance tier
// refuse a factor built without it, and the typed API panics with that
// refusal. Hops and closeness, in both forms, sweep the graphs and need
// no tier.
func TestDistanceLawsNeedTheTier(t *testing.T) {
	refusesWithout(t, Distances, "distance")
	f := NewFactor(gen.Path(3).WithFullSelfLoops(), Triangles)
	fs, zero := []*Factor{f, f}, []int64{0, 0}
	for _, c := range []struct {
		law  string
		call func()
	}{
		{"diameter", func() { diameterOf(fs) }},
		{"eccentricity", func() { _, _ = ChainEccentricities(fs) }},
		{"eccentricity histogram", func() { _, _ = ChainEccentricityHistogram(fs) }},
	} {
		wantPanic(t, "needs the distance tier, which factor 0 was built without ("+c.law+")", c.call)
	}
	if h := hopsRow(fs, zero)([]int64{2, 2}); h != 2 {
		t.Errorf("hops from (0,0) to (2,2) without the tier: %d, want 2", h)
	}
	if z, zc := ClosenessAt(f, f, 0), ChainClosenessAt(fs, zero); z <= 0 || zc != z {
		t.Errorf("closeness without the tier: direct %v, compressed %v", z, zc)
	}
}

// TestTriangleLawsNeedTheTier: the rows that read the triangle tier —
// clustering among them — refuse a factor built without it.
func TestTriangleLawsNeedTheTier(t *testing.T) {
	refusesWithout(t, Triangles, "triangle")
	f := NewFactor(gen.Path(3), 0)
	wantPanic(t, "needs the triangle tier, which factor 0 was built without (global triangles)", func() { _, _ = ChainGlobalTriangles([]*Factor{f, f}) })
}
