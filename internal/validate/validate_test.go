package validate

import (
	"math"
	"strings"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// TestScalingLawsAllHold checks both products of experiment E1's four
// factor pairs everywhere — every vertex, arc and community — and holds
// the two reports together to every row of the law table and to the
// community laws.
func TestScalingLawsAllHold(t *testing.T) {
	lcc := func(g *graph.Graph) *graph.Graph { c, _ := g.LargestComponent(); return c }
	sbmA, partA := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(3, 8), PIn: 0.7, POut: 0.1, Seed: 3})
	sbmB, partB := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(2, 9), PIn: 0.6, POut: 0.12, Seed: 4})
	for _, pr := range []struct {
		a, b   *graph.Graph
		pa, pb [][]int64
	}{
		{gen.ER(14, 0.35, 1), gen.ER(12, 0.4, 2),
			[][]int64{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13}},
			[][]int64{{0, 1, 2, 3, 4, 5}, {6, 7, 8, 9, 10, 11}}},
		{sbmA, sbmB, partA, partB},
		{lcc(gen.PrefAttach(15, 2, 5)), lcc(gen.MustRMAT(gen.Graph500Params(4, 6))),
			[][]int64{{0, 1, 2, 3, 4, 5, 6}, {7, 8, 9, 10, 11, 12, 13, 14}},
			[][]int64{{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}}},
		{gen.Ring(10), gen.Clique(5),
			[][]int64{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
			[][]int64{{0, 1, 2, 3, 4}}},
	} {
		c, err := core.Product(pr.a, pr.b)
		if err != nil {
			t.Fatal(err)
		}
		cl, err := core.Product(pr.a.WithFullSelfLoops(), pr.b.WithFullSelfLoops())
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run([]*graph.Graph{pr.a, pr.b}, c, Options{Samples: math.MaxInt})
		if err != nil {
			t.Fatal(err)
		}
		looped, err := Run([]*graph.Graph{pr.a, pr.b}, cl, Options{SelfLoops: true, Samples: math.MaxInt, Partitions: [][][]int64{pr.pa, pr.pb}})
		if err != nil {
			t.Fatal(err)
		}
		names := ""
		for _, ch := range append(plain.Checks, looped.Checks...) {
			if !ch.OK {
				t.Errorf("%v ⊗ %v: %s (%s): expected %s, got %s", pr.a, pr.b, ch.Name, ch.Law, ch.Expected, ch.Actual)
			}
			if strings.Contains(ch.Name, "sampled") {
				t.Errorf("%s sampled, want every item checked", ch.Name)
			}
			names += ch.Name + "\n"
		}
		for _, l := range groundtruth.Laws {
			if !strings.Contains(names, l.Name+" ") && !strings.Contains(names, l.Name+"\n") {
				t.Errorf("%v ⊗ %v: no %s check among\n%s", pr.a, pr.b, l.Name, names)
			}
		}
		for _, q := range []string{"communities", "internal density", "external density"} {
			if !strings.Contains(names, q) {
				t.Errorf("%v ⊗ %v: no %s check among\n%s", pr.a, pr.b, q, names)
			}
		}
	}
}

func TestRunPassesOnCorrectProduct(t *testing.T) {
	a := gen.PrefAttach(12, 2, 1)
	b := gen.ER(10, 0.4, 2)
	c, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]*graph.Graph{a, b}, c, Options{Samples: 32})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("correct product failed validation:\n%s", rep)
	}
	if len(rep.Checks) < 5 {
		t.Errorf("expected ≥5 checks, got %d", len(rep.Checks))
	}
}

func TestRunPassesWithSelfLoopsAndCommunities(t *testing.T) {
	a, pa := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(2, 8), PIn: 0.6, POut: 0.1, Seed: 3})
	c, err := core.Product(a.WithFullSelfLoops(), a.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]*graph.Graph{a, a}, c, Options{
		SelfLoops: true, Samples: 16,
		Partitions: [][][]int64{pa, pa},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("looped product failed validation:\n%s", rep)
	}
	found := false
	for _, ch := range rep.Checks {
		if strings.Contains(ch.Name, "communities") {
			found = true
		}
	}
	if !found {
		t.Error("community check missing")
	}
}

// A k = 3 chain takes one partition per factor: the community counts
// fold Thm. 6 over the chain and hold at every community of the
// materialized ⊗(A_d+I), and Weichsel's count holds too.
func TestRunChainCommunities(t *testing.T) {
	a, pa := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(2, 5), PIn: 0.6, POut: 0.1, Seed: 1})
	b, pb := gen.SBM(gen.SBMParams{BlockSizes: gen.EqualBlocks(3, 3), PIn: 0.7, POut: 0.3, Seed: 4})
	gs := []*graph.Graph{a, b, gen.Path(4)}
	ch, err := core.NewChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Product(ch.WithFullSelfLoops().Factors()...)
	if err != nil {
		t.Fatal(err)
	}
	parts := [][][]int64{pa, pb, {{0, 1}, {2, 3}}}
	rep, err := Run(gs, c, Options{SelfLoops: true, Samples: 16, Partitions: parts})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("k = 3 looped product failed validation:\n%s", rep)
	}
	for _, q := range []string{"communities (2×3×2)", "internal density (all 12 communities)", "external density (all 12 communities)", "components (Weichsel)"} {
		if !strings.Contains(rep.String(), q) {
			t.Errorf("no %s check among\n%s", q, rep)
		}
	}
	if _, err := Run(gs, c, Options{SelfLoops: true, Partitions: parts[:2]}); err == nil {
		t.Error("two partitions for three factors should error")
	}
}

// On (2K₂+I)⊗(P₃+I) the disconnected factor leaves every product vertex
// Unreachable: ε is −1 on both sides of the eccentricity check, not the
// largest finite hop, and the diameter and ε histogram agree.
func TestRunPassesOnDisconnectedFactor(t *testing.T) {
	twoK2, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p3 := gen.Path(3)
	c, err := core.Product(twoK2.WithFullSelfLoops(), p3.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Run([]*graph.Graph{twoK2, p3}, c, Options{SelfLoops: true, Samples: 16})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("true product failed validation:\n%s", rep)
	}
	for _, want := range []string{"hops (", "eccentricity (", "eccentricity histogram (", "diameter"} {
		found := false
		for _, ch := range rep.Checks {
			found = found || strings.HasPrefix(ch.Name, want)
		}
		if !found {
			t.Errorf("no %s check ran:\n%s", want, rep)
		}
	}
}

// A per-arc law holds at non-loop arcs, so its check counts and draws
// only those: (A+I)⊗(A+I) for A one edge among ten vertices has 144 arcs,
// 100 of them loops, and 64 samples cover the other 44.
func TestPerArcCheckCountsNonLoopArcs(t *testing.T) {
	a, err := graph.NewUndirected(10, []graph.Edge{{U: 0, V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	c, err := core.Product(a.WithFullSelfLoops(), a.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	if c.NumArcs() != 144 || c.NumSelfLoops() != 100 {
		t.Fatalf("product has %d arcs, %d loops; want 144, 100", c.NumArcs(), c.NumSelfLoops())
	}
	for _, samples := range []int{64, math.MaxInt} {
		rep, err := Run([]*graph.Graph{a, a}, c, Options{SelfLoops: true, Samples: samples})
		if err != nil {
			t.Fatal(err)
		}
		if !rep.OK() {
			t.Fatalf("true product failed validation:\n%s", rep)
		}
		if !strings.Contains(rep.String(), "edge triangles (all 44 arcs)") {
			t.Errorf("samples %d: want the check of all 44 non-loop arcs among\n%s", samples, rep)
		}
	}
}

// The whole point: a single perturbed edge must trip the battery.
func TestRunCatchesSingleEdgePerturbations(t *testing.T) {
	a := gen.PrefAttach(10, 2, 5)
	b := gen.ER(8, 0.5, 6)
	c, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]*graph.Graph{
		"edge removed": c.FilterArcs(func(u, v int64) bool {
			e := c.EdgeList()[3]
			return !(u == e.U && v == e.V) && !(u == e.V && v == e.U)
		}),
		"one arc removed": c.FilterArcs(func(u, v int64) bool {
			e := c.EdgeList()[3]
			return !(u == e.U && v == e.V)
		}),
		"edge added": mustAddEdge(t, c),
	}
	for name, bad := range cases {
		rep, err := Run([]*graph.Graph{a, b}, bad, Options{Samples: 64})
		if err != nil {
			t.Fatal(err)
		}
		if rep.OK() {
			t.Errorf("%s: validation passed on a corrupted product:\n%s", name, rep)
		}
	}
}

func mustAddEdge(t *testing.T, c *graph.Graph) *graph.Graph {
	t.Helper()
	// Find a non-edge (u,v), u≠v, and add it.
	n := c.NumVertices()
	for u := int64(0); u < n; u++ {
		for v := u + 1; v < n; v++ {
			if !c.HasArc(u, v) {
				arcs := append(c.ArcList(), graph.Edge{U: u, V: v}, graph.Edge{U: v, V: u})
				g, err := graph.New(n, arcs)
				if err != nil {
					t.Fatal(err)
				}
				return g
			}
		}
	}
	t.Fatal("product is complete; cannot add an edge")
	return nil
}

func TestRunCatchesWrongVertexCount(t *testing.T) {
	a := gen.Ring(5)
	b := gen.Ring(4)
	wrong, _ := graph.New(7, nil)
	rep, err := Run([]*graph.Graph{a, b}, wrong, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.OK() {
		t.Error("wrong vertex count passed")
	}
	if len(rep.Failures()) == 0 {
		t.Error("Failures() empty on failing report")
	}
}

func TestRunOptionValidation(t *testing.T) {
	a := gen.Ring(4).WithFullSelfLoops()
	if _, err := Run([]*graph.Graph{a, a}, a, Options{SelfLoops: true}); err == nil {
		t.Error("looped input factors with SelfLoops mode should error")
	}
	bare := gen.Ring(4)
	c, _ := core.Product(bare, bare)
	if _, err := Run([]*graph.Graph{bare, bare}, c, Options{Partitions: [][][]int64{{{0}}, {{0}}}}); err == nil {
		t.Error("community checks without SelfLoops should error")
	}
}

func TestReportString(t *testing.T) {
	rep := &Report{Checks: []Check{{"x", "", "1", "2", false}, {"y", "", "1", "1", true}}}
	s := rep.String()
	if !strings.Contains(s, "FAIL") || !strings.Contains(s, "PASS") {
		t.Errorf("report rendering: %q", s)
	}
}

// TestRunBuildsTheDistanceTiersItChecks counts the distance summaries Run
// asks its Source for and the ones it builds. Under SkipDistances it
// builds none. On E7's shape, (A+I)⊗(A+I) with gs = [A, A], it builds one:
// the ε row asks for each factor's, and closeness, which sweeps its
// digits, asks for none; over every vertex the ε histogram and the
// diameter ask too, and share it.
func TestRunBuildsTheDistanceTiersItChecks(t *testing.T) {
	var asks int
	built := map[*groundtruth.Factor]bool{}
	summaries = func(gs []*graph.Graph) groundtruth.Source {
		src := groundtruth.Summaries(gs)
		return func(d int, plusI bool, tiers groundtruth.Tiers) (*groundtruth.Factor, error) {
			f, err := src(d, plusI, tiers)
			if tiers&groundtruth.Distances != 0 {
				asks++
				built[f] = true
			}
			return f, err
		}
	}
	t.Cleanup(func() { summaries = groundtruth.Summaries })
	a, _ := gen.PrefAttach(20, 2, 88).LargestComponent()
	c, err := core.Product(a.WithFullSelfLoops(), a.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		opts         Options
		asks, builds int
	}{
		{Options{SelfLoops: true, Samples: math.MaxInt, SkipDistances: true}, 0, 0},
		{Options{SelfLoops: true, Samples: 100}, 2, 1},
		{Options{SelfLoops: true, Samples: math.MaxInt}, 6, 1},
	} {
		asks, built = 0, map[*groundtruth.Factor]bool{}
		rep, err := Run([]*graph.Graph{a, a}, c, tc.opts)
		if err != nil || !rep.OK() {
			t.Fatalf("%+v: %v\n%v", tc.opts, err, rep)
		}
		if asks != tc.asks || len(built) != tc.builds {
			t.Errorf("%+v: %d distance asks, %d built; want %d and %d", tc.opts, asks, len(built), tc.asks, tc.builds)
		}
	}
}
