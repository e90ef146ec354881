package graph

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
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

// newBySort is the constructor as it stood before NewUndirected took two
// counting passes, kept unchanged as the oracle for both constructors:
// bucket the arcs by source, then sort and dedup each row.
func newBySort(n int64, arcs []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative vertex count %d", n)
	}
	for _, a := range arcs {
		if a.U < 0 || a.U >= n || a.V < 0 || a.V >= n {
			return nil, fmt.Errorf("graph: arc (%d,%d) out of range [0,%d)", a.U, a.V, n)
		}
	}
	g := &Graph{n: n}
	g.offsets = make([]int64, n+1)
	for _, a := range arcs {
		g.offsets[a.U+1]++
	}
	for i := int64(0); i < n; i++ {
		g.offsets[i+1] += g.offsets[i]
	}
	g.adj = make([]int64, len(arcs))
	next := make([]int64, n)
	copy(next, g.offsets[:n])
	for _, a := range arcs {
		g.adj[next[a.U]] = a.V
		next[a.U]++
	}
	sortAndDedup(g)
	return g, nil
}

// newUndirectedBySort is NewUndirected over newBySort: the doubled arc
// list built as a copy.
func newUndirectedBySort(n int64, edges []Edge) (*Graph, error) {
	arcs := make([]Edge, 0, 2*len(edges))
	for _, e := range edges {
		arcs = append(arcs, e)
		if e.U != e.V {
			arcs = append(arcs, Edge{e.V, e.U})
		}
	}
	return newBySort(n, arcs)
}

// sortAndDedup sorts each adjacency row and removes duplicate arcs,
// recomputing offsets and the loop count.
func sortAndDedup(g *Graph) {
	newAdj := g.adj[:0]
	newOff := make([]int64, g.n+1)
	var loops int64
	for v := int64(0); v < g.n; v++ {
		row := g.adj[g.offsets[v]:g.offsets[v+1]]
		slices.Sort(row)
		start := int64(len(newAdj))
		for i, w := range row {
			if i > 0 && row[i-1] == w {
				continue
			}
			if w == v {
				loops++
			}
			newAdj = append(newAdj, w)
		}
		newOff[v] = start
	}
	newOff[g.n] = int64(len(newAdj))
	// newAdj aliases g.adj's backing array; compaction above only moves
	// elements leftward so this in-place rewrite is safe.
	g.adj = newAdj
	g.offsets = newOff
	g.loops = loops
}

// constructionCase is one input to New and NewUndirected.
type constructionCase struct {
	name string
	n    int64
	arcs []Edge
}

// constructionCases are the inputs TestNewMatchesSortReference and FuzzNew
// share: the empty graph, hand-made tiny ones, random unsorted arc lists
// at n ∈ {1, 2, 3, 64} with duplicates, loops and one hub row holding a
// third of the arcs, the last of those reordered so that every row
// already ascends (by target, rows interleaved as core.Product streams
// them, and by source then target), then the inputs New must reject.
func constructionCases() []constructionCase {
	rng := rand.New(rand.NewSource(29))
	cases := []constructionCase{
		{"n0", 0, nil},
		{"n1 loop", 1, []Edge{{0, 0}, {0, 0}}},
		{"n2 both ways", 2, []Edge{{1, 0}, {0, 1}, {1, 0}, {1, 1}}},
		{"n3 isolated", 3, []Edge{{2, 0}, {2, 0}}},
	}
	for _, n := range []int64{1, 2, 3, 64} {
		for trial := 0; trial < 4; trial++ {
			arcs := make([]Edge, 3*n+rng.Int63n(4*n))
			for i := range arcs {
				switch {
				case i%3 == 0: // the hub row, both as source and target
					arcs[i] = Edge{n / 2, rng.Int63n(n)}
					if rng.Intn(2) == 0 {
						arcs[i] = Edge{arcs[i].V, arcs[i].U}
					}
				case i%7 == 1 && i > 1: // a repeat
					arcs[i] = arcs[rng.Intn(i-1)]
				case i%11 == 2: // a loop
					v := rng.Int63n(n)
					arcs[i] = Edge{v, v}
				default:
					arcs[i] = Edge{rng.Int63n(n), rng.Int63n(n)}
				}
			}
			cases = append(cases, constructionCase{fmt.Sprintf("n%d random %d", n, trial), n, arcs})
		}
	}
	last := cases[len(cases)-1].arcs
	byTarget := slices.Clone(last)
	slices.SortFunc(byTarget, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.V, b.V), cmp.Compare(a.U, b.U)) })
	bySource := slices.Clone(last)
	slices.SortFunc(bySource, func(a, b Edge) int { return cmp.Or(cmp.Compare(a.U, b.U), cmp.Compare(a.V, b.V)) })
	return append(cases,
		constructionCase{"n64 rows ascend, interleaved", 64, byTarget},
		constructionCase{"n64 rows ascend, in row order", 64, bySource},
		constructionCase{"negative n", -1, nil},
		constructionCase{"target out of range", 3, []Edge{{0, 1}, {0, 3}}},
		constructionCase{"negative source", 3, []Edge{{-1, 0}}},
		// Rejected before any O(n) allocation, or this would not return.
		constructionCase{"huge n, bad arc", 1 << 60, []Edge{{0, 1}, {1 << 60, 0}}},
	)
}

// sameConstruction fails t unless got and want are both errors or are
// identical graphs: offsets, adjacency, loops and edge count.
func sameConstruction(t *testing.T, what string, got *Graph, gotErr error, want *Graph, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, reference error %v", what, gotErr, wantErr)
	}
	if gotErr != nil {
		if gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %q, reference %q", what, gotErr, wantErr)
		}
		return
	}
	if !slices.Equal(got.offsets, want.offsets) || !slices.Equal(got.adj, want.adj) ||
		got.loops != want.loops || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: built %v offsets %v adj %v, reference %v offsets %v adj %v",
			what, got, got.offsets, got.adj, want, want.offsets, want.adj)
	}
}

// TestNewMatchesSortReference holds New and NewUndirected to the
// sort-based reference, byte for byte.
func TestNewMatchesSortReference(t *testing.T) {
	for _, c := range constructionCases() {
		t.Run(c.name, func(t *testing.T) {
			got, err := New(c.n, c.arcs)
			want, wantErr := newBySort(c.n, c.arcs)
			sameConstruction(t, "New", got, err, want, wantErr)
			got, err = NewUndirected(c.n, c.arcs)
			want, wantErr = newUndirectedBySort(c.n, c.arcs)
			sameConstruction(t, "NewUndirected", got, err, want, wantErr)
		})
	}
}

// FuzzNew holds New and NewUndirected to the sort-based reference on
// arbitrary arc lists: data is read as pairs of signed bytes, so negative
// and out-of-range endpoints, duplicates and hub rows all turn up.
func FuzzNew(f *testing.F) {
	for _, c := range constructionCases() {
		if c.n < math.MinInt16 || c.n > math.MaxInt16 {
			continue
		}
		data := make([]byte, 0, 2*len(c.arcs))
		for _, a := range c.arcs {
			data = append(data, byte(int8(a.U)), byte(int8(a.V)))
		}
		f.Add(int16(c.n), data)
	}
	f.Fuzz(func(t *testing.T, n int16, data []byte) {
		arcs := make([]Edge, len(data)/2)
		for i := range arcs {
			arcs[i] = Edge{int64(int8(data[2*i])), int64(int8(data[2*i+1]))}
		}
		got, err := New(int64(n), arcs)
		want, wantErr := newBySort(int64(n), arcs)
		sameConstruction(t, "New", got, err, want, wantErr)
		got, err = NewUndirected(int64(n), arcs)
		want, wantErr = newUndirectedBySort(int64(n), arcs)
		sameConstruction(t, "NewUndirected", got, err, want, wantErr)
	})
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

// TestBinaryChunkBoundaries round-trips paths whose edge counts sit on
// either side of the chunks WriteBinary and ReadBinary move, reading them
// back one byte per Read, and fails a writer at each of WriteBinary's
// writes in turn: every such error must come back.
func TestBinaryChunkBoundaries(t *testing.T) {
	per := binaryChunk / binaryRecordSize
	for _, m := range []int{per - 2, per - 1, per, per + 1, 2*per - 1, 2 * per, 2*per + 1, 5*per + 3} {
		edges := make([]Edge, m)
		for i := range edges {
			edges[i] = Edge{int64(i), int64(i + 1)}
		}
		g := mustUnd(t, int64(m+1), edges)
		var buf bytes.Buffer
		w := &countingWriter{w: &buf, failAt: -1}
		if err := g.WriteBinary(w); err != nil {
			t.Fatal(err)
		}
		if got, want := buf.Len(), binaryHeaderSize+m*binaryRecordSize; got != want {
			t.Fatalf("m=%d: wrote %d bytes, want %d", m, got, want)
		}
		h, err := ReadBinary(iotest.OneByteReader(&buf))
		if err != nil {
			t.Fatalf("m=%d: %v", m, err)
		}
		if !g.Equal(h) {
			t.Fatalf("m=%d: binary round trip mismatch", m)
		}
		for k := 0; k < w.writes; k++ {
			if err := g.WriteBinary(&countingWriter{w: io.Discard, failAt: k}); !errors.Is(err, errWriteFailed) {
				t.Fatalf("m=%d: write %d of %d failed, WriteBinary returned %v", m, k, w.writes, err)
			}
		}
	}
}

var errWriteFailed = errors.New("write failed")

// countingWriter counts the Writes it passes on to w and fails the one
// numbered failAt (from 0; never if negative).
type countingWriter struct {
	w      io.Writer
	failAt int
	writes int
}

func (c *countingWriter) Write(p []byte) (int, error) {
	c.writes++
	if c.writes-1 == c.failAt {
		return 0, errWriteFailed
	}
	return c.w.Write(p)
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

// TestNarrowArcs holds NarrowArcs to ArcSlice narrowed to u | v<<16 —
// halfwords that zero-extend into PackedArcs' dwords — checks that calls
// from several goroutines at once hand out one backing array, and pins the
// 2¹⁶ rule on the vertex count: non-nil at exactly 2¹⁶ vertices, its
// largest id in both halves, and nil at 2¹⁶+1.
func TestNarrowArcs(t *testing.T) {
	g := mustUnd(t, 5, []Edge{{0, 1}, {1, 2}, {3, 3}})
	got := make([][]uint32, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() { defer wg.Done(); got[i] = g.NarrowArcs() }()
	}
	wg.Wait()
	for _, p := range got {
		if len(p) != 5 || &p[0] != &got[0][0] {
			t.Fatalf("concurrent NarrowArcs: %d arcs at %p, first call %p", len(p), p, got[0])
		}
	}

	rng := rand.New(rand.NewSource(8))
	for i := 0; i < 20; i++ {
		g := randomGraph(rng, 60)
		n, packed := g.NarrowArcs(), g.PackedArcs()
		if n == nil || len(n) != len(packed) {
			t.Fatalf("%v: NarrowArcs has %d arcs, PackedArcs %d", g, len(n), len(packed))
		}
		for j, p := range packed {
			if w := uint64(n[j]&0xffff) | uint64(n[j]>>16)<<32; w != p {
				t.Fatalf("%v: NarrowArcs[%d] = %#x widens to %#x, PackedArcs %#x", g, j, n[j], w, p)
			}
		}
		if q := g.NarrowArcs(); len(n) > 0 && &q[0] != &n[0] {
			t.Fatalf("%v: NarrowArcs rebuilt on the second call", g)
		}
	}

	const top = 1<<16 - 1
	edges := []Edge{{0, top}, {top, top}, {1, 2}}
	if n := mustUnd(t, top+1, edges).NarrowArcs(); !slices.Equal(n, []uint32{top << 16, 2<<16 | 1, 1<<16 | 2, top, top<<16 | top}) {
		t.Fatalf("NarrowArcs at 2¹⁶ vertices = %#x", n)
	}
	if n := mustUnd(t, top+2, edges).NarrowArcs(); n != nil {
		t.Fatalf("NarrowArcs at 2¹⁶+1 vertices = %d arcs, want nil", len(n))
	}
	if n := mustUnd(t, 3, nil).NarrowArcs(); n == nil || len(n) != 0 {
		t.Fatalf("NarrowArcs without arcs = %v, want empty and non-nil", n)
	}
}
