package groundtruth

import (
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestSummariesBuildTheTiersAsked: a Source builds each summary it is
// asked for once, over the +I form when asked, holding exactly the tiers
// asked, and two summaries of one factor share no tier: each is built
// from scratch. The +I summaries of a factor read one +I graph.
func TestSummariesBuildTheTiersAsked(t *testing.T) {
	g := gen.PrefAttach(12, 2, 5)
	src := Summaries([]*graph.Graph{g})
	for _, plusI := range []bool{false, true} {
		seen := map[*int64]Tiers{}
		graphs := map[*graph.Graph]bool{}
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
			if loops := f.G.NumSelfLoops(); (loops == f.N()) != plusI {
				t.Errorf("plusI=%v: summary of a graph with %d loops", plusI, loops)
			}
			if other, ok := seen[&f.Deg[0]]; ok {
				t.Errorf("plusI=%v: tiers %b share their degrees with tiers %b", plusI, tiers, other)
			}
			seen[&f.Deg[0]] = tiers
			graphs[f.G] = true
		}
		if plusI && len(graphs) != 1 {
			t.Errorf("the +I summaries read %d graphs, want one", len(graphs))
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
