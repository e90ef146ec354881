package groundtruth

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

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
// refusal. Hops and the direct closeness sum sweep the graphs and need
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
		{"closeness", func() { ChainClosenessAt(fs, zero) }},
	} {
		wantPanic(t, "needs the distance tier, which factor 0 was built without ("+c.law+")", c.call)
	}
	if h := hopsRow(fs, zero)([]int64{2, 2}); h != 2 {
		t.Errorf("hops from (0,0) to (2,2) without the tier: %d, want 2", h)
	}
	if z := ClosenessAt(f, f, 0); z <= 0 {
		t.Errorf("direct closeness without the tier: %v", z)
	}
}

// TestTriangleLawsNeedTheTier: the rows that read the triangle tier —
// clustering among them — refuse a factor built without it.
func TestTriangleLawsNeedTheTier(t *testing.T) {
	refusesWithout(t, Triangles, "triangle")
	f := NewFactor(gen.Path(3), 0)
	wantPanic(t, "needs the triangle tier, which factor 0 was built without (global triangles)", func() { _, _ = ChainGlobalTriangles([]*Factor{f, f}) })
}
