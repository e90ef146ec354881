package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func mustNew(t *testing.T, n int64, arcs []Edge) *Graph {
	t.Helper()
	g, err := New(n, arcs)
	if err != nil {
		t.Fatalf("New(%d): %v", n, err)
	}
	return g
}

func mustUnd(t *testing.T, n int64, edges []Edge) *Graph {
	t.Helper()
	g, err := NewUndirected(n, edges)
	if err != nil {
		t.Fatalf("NewUndirected(%d): %v", n, err)
	}
	return g
}

// randomGraph builds a random undirected graph for property tests.
func randomGraph(rng *rand.Rand, maxN int64) *Graph {
	n := 1 + rng.Int63n(maxN)
	m := rng.Int63n(2*n + 1)
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{rng.Int63n(n), rng.Int63n(n)}
	}
	g, err := NewUndirected(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

func TestEmptyGraph(t *testing.T) {
	g := mustNew(t, 0, nil)
	if g.NumVertices() != 0 || g.NumEdges() != 0 || g.NumArcs() != 0 {
		t.Errorf("empty graph: got %v", g)
	}
	if !g.IsSymmetric() {
		t.Error("empty graph should be symmetric")
	}
}

func TestNewRejectsOutOfRange(t *testing.T) {
	if _, err := New(3, []Edge{{0, 3}}); err == nil {
		t.Error("expected out-of-range error for arc (0,3) with n=3")
	}
	if _, err := New(3, []Edge{{-1, 0}}); err == nil {
		t.Error("expected out-of-range error for negative endpoint")
	}
	if _, err := New(-1, nil); err == nil {
		t.Error("expected error for negative n")
	}
}

func TestDedupAndSort(t *testing.T) {
	g := mustNew(t, 3, []Edge{{0, 2}, {0, 1}, {0, 2}, {0, 1}, {0, 1}})
	if got := g.Neighbors(0); !reflect.DeepEqual(got, []int64{1, 2}) {
		t.Errorf("Neighbors(0) = %v, want [1 2]", got)
	}
	if g.NumArcs() != 2 {
		t.Errorf("NumArcs = %d, want 2", g.NumArcs())
	}
}

func TestUndirectedTriangle(t *testing.T) {
	g := mustUnd(t, 3, []Edge{{0, 1}, {1, 2}, {2, 0}})
	if g.NumEdges() != 3 || g.NumArcs() != 6 {
		t.Fatalf("triangle: edges=%d arcs=%d", g.NumEdges(), g.NumArcs())
	}
	if !g.IsSymmetric() {
		t.Error("undirected triangle must be symmetric")
	}
	for v := int64(0); v < 3; v++ {
		if g.Degree(v) != 2 {
			t.Errorf("Degree(%d) = %d, want 2", v, g.Degree(v))
		}
	}
}

func TestSelfLoopCounting(t *testing.T) {
	g := mustUnd(t, 3, []Edge{{0, 0}, {0, 1}, {2, 2}})
	if g.NumSelfLoops() != 2 {
		t.Errorf("NumSelfLoops = %d, want 2", g.NumSelfLoops())
	}
	// arcs: (0,0),(0,1),(1,0),(2,2) = 4; edges = (4+2)/2 = 3.
	if g.NumArcs() != 4 {
		t.Errorf("NumArcs = %d, want 4", g.NumArcs())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	// Self loop counts once toward degree.
	if g.Degree(0) != 2 {
		t.Errorf("Degree(0) = %d, want 2 (loop + edge)", g.Degree(0))
	}
	if !g.HasSelfLoop(0) || g.HasSelfLoop(1) || !g.HasSelfLoop(2) {
		t.Error("HasSelfLoop wrong")
	}
}

func TestHasArcAndArcIndex(t *testing.T) {
	g := mustUnd(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	if !g.HasArc(1, 2) || !g.HasArc(2, 1) {
		t.Error("expected arcs (1,2) and (2,1)")
	}
	if g.HasArc(0, 3) {
		t.Error("unexpected arc (0,3)")
	}
	idx := g.ArcIndex(1, 2)
	if idx < 0 || g.ArcTarget(idx) != 2 || g.ArcSource(idx) != 1 {
		t.Errorf("ArcIndex/Source/Target inconsistent: idx=%d", idx)
	}
	if g.ArcIndex(0, 3) != -1 {
		t.Error("ArcIndex of absent arc should be -1")
	}
}

func TestArcSourceConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := randomGraph(rng, 30)
	idx := int64(-1)
	g.Arcs(func(u, v int64) bool {
		idx++
		if g.ArcSource(idx) != u || g.ArcTarget(idx) != v {
			t.Fatalf("arc %d: ArcSource/Target = (%d,%d), want (%d,%d)",
				idx, g.ArcSource(idx), g.ArcTarget(idx), u, v)
		}
		return true
	})
}

func TestEdgesVisitsEachOnce(t *testing.T) {
	g := mustUnd(t, 4, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 3}})
	var edges []Edge
	g.Edges(func(u, v int64) bool {
		edges = append(edges, Edge{u, v})
		return true
	})
	if len(edges) != 4 {
		t.Fatalf("Edges visited %d, want 4 (3 edges + loop)", len(edges))
	}
	for _, e := range edges {
		if e.U > e.V {
			t.Errorf("non-canonical edge %v", e)
		}
	}
}

func TestEdgeListArcListRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 25)
		h := mustUnd(t, g.NumVertices(), g.EdgeList())
		if !g.Equal(h) {
			t.Fatalf("trial %d: EdgeList round trip mismatch", trial)
		}
		h2 := mustNew(t, g.NumVertices(), g.ArcList())
		if !g.Equal(h2) {
			t.Fatalf("trial %d: ArcList round trip mismatch", trial)
		}
	}
}

func TestWithFullSelfLoops(t *testing.T) {
	g := mustUnd(t, 3, []Edge{{0, 1}})
	gl := g.WithFullSelfLoops()
	if gl.NumSelfLoops() != 3 {
		t.Errorf("loops = %d, want 3", gl.NumSelfLoops())
	}
	if gl.NumEdges() != g.NumEdges()+3 {
		t.Errorf("edges = %d, want %d", gl.NumEdges(), g.NumEdges()+3)
	}
	// Idempotent on already-looped graphs.
	gl2 := gl.WithFullSelfLoops()
	if !gl.Equal(gl2) {
		t.Error("WithFullSelfLoops not idempotent")
	}
}

func TestStripSelfLoopsInvertsAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(rng, 25).StripSelfLoops()
		if got := g.WithFullSelfLoops().StripSelfLoops(); !got.Equal(g) {
			t.Fatalf("trial %d: strip(add(g)) != g", trial)
		}
	}
}

func TestSymmetrized(t *testing.T) {
	g := mustNew(t, 3, []Edge{{0, 1}, {1, 2}}) // directed arcs only
	if g.IsSymmetric() {
		t.Fatal("directed input should not be symmetric")
	}
	s := g.Symmetrized()
	if !s.IsSymmetric() {
		t.Error("Symmetrized result must be symmetric")
	}
	if s.NumArcs() != 4 {
		t.Errorf("arcs = %d, want 4", s.NumArcs())
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := mustUnd(t, 5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub, old := g.InducedSubgraph([]int64{1, 2, 3})
	if sub.NumVertices() != 3 || sub.NumEdges() != 2 {
		t.Errorf("induced path: n=%d m=%d, want 3, 2", sub.NumVertices(), sub.NumEdges())
	}
	if !reflect.DeepEqual(old, []int64{1, 2, 3}) {
		t.Errorf("old labels = %v", old)
	}
}

func TestFilterArcs(t *testing.T) {
	g := mustUnd(t, 4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	f := g.FilterArcs(func(u, v int64) bool { return u != 1 && v != 1 })
	if f.NumEdges() != 1 {
		t.Errorf("filtered edges = %d, want 1", f.NumEdges())
	}
	if f.NumVertices() != 4 {
		t.Errorf("vertex count changed: %d", f.NumVertices())
	}
}

func TestConnectedComponents(t *testing.T) {
	g := mustUnd(t, 6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	labels, count := g.ConnectedComponents()
	if count != 3 {
		t.Fatalf("components = %d, want 3 (triangle-ish, pair, isolate)", count)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("0,1,2 must share a component")
	}
	if labels[3] != labels[4] {
		t.Error("3,4 must share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("5 must be isolated")
	}
}

func TestLargestComponent(t *testing.T) {
	g := mustUnd(t, 7, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}})
	lcc, old := g.LargestComponent()
	if lcc.NumVertices() != 3 || lcc.NumEdges() != 3 {
		t.Errorf("LCC: n=%d m=%d, want 3,3", lcc.NumVertices(), lcc.NumEdges())
	}
	sort.Slice(old, func(i, j int) bool { return old[i] < old[j] })
	if !reflect.DeepEqual(old, []int64{0, 1, 2}) {
		t.Errorf("old = %v, want [0 1 2]", old)
	}
}

func TestIsConnected(t *testing.T) {
	if !mustUnd(t, 3, []Edge{{0, 1}, {1, 2}}).IsConnected() {
		t.Error("path should be connected")
	}
	if mustUnd(t, 3, []Edge{{0, 1}}).IsConnected() {
		t.Error("graph with isolate should not be connected")
	}
	if mustNew(t, 0, nil).IsConnected() {
		t.Error("empty graph is not connected")
	}
}

func TestEdgeCanon(t *testing.T) {
	if (Edge{5, 2}).Canon() != (Edge{2, 5}) {
		t.Error("Canon should order endpoints")
	}
	if (Edge{2, 5}).Canon() != (Edge{2, 5}) {
		t.Error("Canon must be idempotent")
	}
	if !(Edge{3, 3}).IsLoop() || (Edge{3, 4}).IsLoop() {
		t.Error("IsLoop wrong")
	}
}

func TestDegreesAndMaxDegree(t *testing.T) {
	g := mustUnd(t, 4, []Edge{{0, 1}, {0, 2}, {0, 3}})
	if !reflect.DeepEqual(g.Degrees(), []int64{3, 1, 1, 1}) {
		t.Errorf("Degrees = %v", g.Degrees())
	}
	if g.MaxDegree() != 3 {
		t.Errorf("MaxDegree = %d, want 3", g.MaxDegree())
	}
}

func TestTextIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 20)
		var buf bytes.Buffer
		if err := g.WriteEdgeList(&buf); err != nil {
			t.Fatal(err)
		}
		edges, n, err := ReadEdgeList(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if n > g.NumVertices() {
			t.Fatalf("read n=%d > wrote n=%d", n, g.NumVertices())
		}
		h := mustUnd(t, g.NumVertices(), edges)
		// Trailing isolated vertices are lost by edge-list text format;
		// compare edge sets instead of full equality.
		if !reflect.DeepEqual(g.EdgeList(), h.EdgeList()) {
			t.Fatalf("trial %d: text round-trip edge mismatch", trial)
		}
	}
}

func TestBinaryIORoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(rng, 20)
		var buf bytes.Buffer
		if err := g.WriteBinary(&buf); err != nil {
			t.Fatal(err)
		}
		h, err := ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !g.Equal(h) {
			t.Fatalf("trial %d: binary round trip mismatch", trial)
		}
	}
}

func TestReadEdgeListComments(t *testing.T) {
	in := "# comment\n% also comment\n\n0 1\n1 2 weight-ignored\n"
	edges, n, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || len(edges) != 2 {
		t.Errorf("n=%d edges=%v", n, edges)
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []string{"0\n", "a b\n", "0 b\n", "-1 2\n"}
	for _, in := range cases {
		if _, _, err := ReadEdgeList(strings.NewReader(in)); err == nil {
			t.Errorf("input %q: expected parse error", in)
		}
	}
}

func TestReadBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 24))); err == nil {
		t.Error("expected bad-magic error")
	}
	if _, err := ReadBinary(bytes.NewReader(nil)); err == nil {
		t.Error("expected short-read error")
	}
}

// Property: for any undirected graph, 2·NumEdges − NumSelfLoops == NumArcs.
func TestPropertyArcEdgeRelation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40)
		return 2*g.NumEdges()-g.NumSelfLoops() == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: the degree sum equals the arc count.
func TestPropertyDegreeSumEqualsArcs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(rng, 40)
		var sum int64
		for _, d := range g.Degrees() {
			sum += d
		}
		return sum == g.NumArcs()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: NewUndirected always produces a symmetric graph.
func TestPropertySymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		return randomGraph(rng, 40).IsSymmetric()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestStringer(t *testing.T) {
	g := mustUnd(t, 3, []Edge{{0, 1}, {2, 2}})
	want := "graph{n=3 m=2 loops=1}"
	if g.String() != want {
		t.Errorf("String = %q, want %q", g.String(), want)
	}
}

// TestPackedArcs holds PackedArcs to ArcSlice packed as u | v<<32, checks
// that a second call — and calls from several goroutines at once, as the
// ranks of one run make them — hand out the same backing array, and pins
// the 2³² rule on the vertex count (a graph that large cannot be built
// here).
func TestPackedArcs(t *testing.T) {
	g := mustUnd(t, 5, []Edge{{0, 1}, {1, 2}, {3, 3}})
	got := make([][]uint64, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = g.PackedArcs() }()
	}
	wg.Wait()
	for _, p := range got {
		if len(p) != 5 || &p[0] != &got[0][0] {
			t.Fatalf("concurrent PackedArcs: %d arcs at %p, first call %p", len(p), p, got[0])
		}
	}

	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 60)
		p := g.PackedArcs()
		arcs := g.ArcSlice()
		if p == nil || len(p) != len(arcs) {
			t.Fatalf("%v: PackedArcs has %d arcs, ArcSlice %d", g, len(p), len(arcs))
		}
		for j, e := range arcs {
			if p[j] != uint64(e.U)|uint64(e.V)<<32 {
				t.Fatalf("%v: PackedArcs[%d] = %#x, arc %v", g, j, p[j], e)
			}
		}
		if q := g.PackedArcs(); len(p) > 0 && &q[0] != &p[0] {
			t.Fatalf("%v: PackedArcs rebuilt on the second call", g)
		}
	}
	for _, c := range []struct {
		n    int64
		want bool
	}{{0, true}, {1, true}, {1 << 32, true}, {1<<32 + 1, false}, {1 << 62, false}} {
		if got := packable(c.n); got != c.want {
			t.Errorf("packable(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}
