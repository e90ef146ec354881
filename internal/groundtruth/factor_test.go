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

// TestSummariesShareTriangles: a Source's summary with the distance tier is
// WithDistances of its memoised summary without it, whichever is asked
// first, so a degree row and a distance row on one factor form count the
// factor's triangles once.
func TestSummariesShareTriangles(t *testing.T) {
	g := gen.PrefAttach(12, 2, 5)
	for _, plusI := range []bool{false, true} {
		for _, distFirst := range []bool{false, true} {
			src := Summaries([]*graph.Graph{g})
			order := []bool{false, true}
			if distFirst {
				order = []bool{true, false}
			}
			got := map[bool]*Factor{}
			for _, distances := range order {
				f, err := src(0, plusI, distances)
				if err != nil {
					t.Fatal(err)
				}
				got[distances] = f
			}
			basic, dist := got[false], got[true]
			if basic.Tri != dist.Tri || &basic.Deg[0] != &dist.Deg[0] || basic.G != dist.G {
				t.Errorf("plusI=%v distFirst=%v: the distance summary does not share the summary's graph, degrees and triangles", plusI, distFirst)
			}
			if basic.distTier != nil || dist.distTier == nil {
				t.Errorf("plusI=%v distFirst=%v: tiers swapped", plusI, distFirst)
			}
			if loops := basic.G.NumSelfLoops(); (loops == basic.N()) != plusI {
				t.Errorf("plusI=%v: summary of a graph with %d loops", plusI, loops)
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
	ref := NewFactor(g).WithDistances()
	want := []*Factor{ref, ref}
	f := NewFactor(g).WithDistances()
	fs := []*Factor{f, f}
	ci := chainIndexFor(t, want)
	wantHist, _ := ChainEccentricityHistogram(want)

	const workers = 4
	var wg sync.WaitGroup
	for w := int64(0); w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if d := ChainDiameter(fs); d != ChainDiameter(want) {
				t.Errorf("diameter %d, want %d", d, ChainDiameter(want))
			}
			if h, _ := ChainEccentricityHistogram(fs); !reflect.DeepEqual(h, wantHist) {
				t.Errorf("ε histogram %v, want %v", h, wantHist)
			}
			for p := w; p < ci.NumVertices(); p += workers {
				c, c0 := ci.Split(p), ci.Split(0)
				if e := ChainEccentricityAt(fs, c); e != ChainEccentricityAt(want, c) {
					t.Errorf("ε(%d) = %d, want %d", p, e, ChainEccentricityAt(want, c))
				}
				if h := ChainHopsFrom(fs, c)(c0); h != ChainHopsFrom(want, c)(c0) {
					t.Errorf("hops(%d, 0) = %d, want %d", p, h, ChainHopsFrom(want, c)(c0))
				}
				if z := ChainClosenessAt(fs, c); z != ChainClosenessAt(want, c) {
					t.Errorf("ζ(%d) = %v, want %v", p, z, ChainClosenessAt(want, c))
				}
			}
		}()
	}
	wg.Wait()
}

// TestDistanceLawsNeedTheTier hands every law that reads the distance
// tier a factor built without WithDistances: each must panic naming
// itself, where reading the missing tier would answer a diameter of 0.
// Hops and the direct closeness sum sweep the graphs and need no tier.
func TestDistanceLawsNeedTheTier(t *testing.T) {
	f := NewFactor(gen.Path(3).WithFullSelfLoops())
	if d := f.WithDistances(); d == f || d.G != f.G || d.WithDistances() != d {
		t.Fatal("WithDistances must return a new factor over the same graph, and itself once it has the tier")
	}
	fs, zero := []*Factor{f, f}, []int64{0, 0}
	for _, c := range []struct {
		law  string
		call func()
	}{
		{"diameter", func() { ChainDiameter(fs) }},
		{"diameter", func() { DiameterBounds(f, f) }},
		{"eccentricity", func() { ChainEccentricityAt(fs, zero) }},
		{"eccentricity", func() { _, _ = ChainEccentricities(fs) }},
		{"eccentricity histogram", func() { _, _ = ChainEccentricityHistogram(fs) }},
		{"closeness", func() { ChainClosenessAt(fs, zero) }},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.law+" needs the distance tier") {
					t.Errorf("%s without the tier: panic %q, want one naming the law", c.law, msg)
				}
			}()
			c.call()
		}()
	}
}
