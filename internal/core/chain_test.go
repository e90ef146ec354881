package core

import (
	"math/rand"
	"slices"
	"testing"

	"kronlab/internal/graph"
)

// chainOf builds a Chain from factors, failing the test on error.
func chainOf(t *testing.T, factors ...*graph.Graph) *Chain {
	t.Helper()
	c, err := NewChain(factors...)
	if err != nil {
		t.Fatalf("NewChain: %v", err)
	}
	return c
}

func TestChainIndexDigitsAndStrides(t *testing.T) {
	ci := MustChainIndex(3, 4, 5)
	if ci.NumVertices() != 60 {
		t.Fatalf("NumVertices = %d, want 60", ci.NumVertices())
	}
	wantStrides := []int64{20, 5, 1}
	for d, w := range wantStrides {
		if ci.Stride(d) != w {
			t.Fatalf("Stride(%d) = %d, want %d", d, ci.Stride(d), w)
		}
	}
	// p = 2·20 + 3·5 + 4 = 59, the largest vertex.
	for d, w := range ci.Split(59) {
		if want := []int64{2, 3, 4}[d]; w != want {
			t.Fatalf("digit %d of 59 = %d, want %d", d, w, want)
		}
	}
	// k = 2 digits specialize to α(p) = ⌊p / n_B⌋ and β(p) = p mod n_B,
	// and Join to γ(i, k) = i·n_B + k.
	two := MustChainIndex(7, 11)
	for p := int64(0); p < 77; p++ {
		if d := two.Split(p); d[0] != p/11 || d[1] != p%11 || two.Join(d) != d[0]*11+d[1] {
			t.Fatalf("digits of %d disagree with α/β/γ", p)
		}
	}
}

// TestIndexMapsKnown checks the worked example of Sec. II-A on the k = 2
// ChainIndex: p = 10 with n_B = 4 has α = 2, β = 2, and γ(2, 2) = 10.
func TestIndexMapsKnown(t *testing.T) {
	ix := MustChainIndex(3, 4)
	if d := ix.Split(10); d[0] != 2 || d[1] != 2 {
		t.Fatalf("Split(10) with n_B = 4 = %v, want [2 2]", d)
	}
	if p := ix.Join([]int64{2, 2}); p != 10 {
		t.Fatalf("Join([2 2]) with n_B = 4 = %d, want 10", p)
	}
	if d := ix.Split(7); d[0] != 1 || d[1] != 3 {
		t.Fatalf("Split(7) with n_B = 4 = %v, want [1 3]", d)
	}
}

func TestChainIndexSplitJoinRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		k := 1 + rng.Intn(5)
		dims := make([]int64, k)
		for d := range dims {
			dims[d] = 1 + rng.Int63n(9)
		}
		ci, err := NewChainIndex(dims)
		if err != nil {
			t.Fatalf("NewChainIndex(%v): %v", dims, err)
		}
		buf := make([]int64, k)
		for i := 0; i < 50; i++ {
			p := rng.Int63n(ci.NumVertices())
			coords := ci.SplitInto(p, buf)
			for d, c := range coords {
				if c < 0 || c >= dims[d] {
					t.Fatalf("Split(%d) digit %d = %d out of [0,%d)", p, d, c, dims[d])
				}
			}
			if got := ci.Join(coords); got != p {
				t.Fatalf("Join(Split(%d)) = %d (dims %v)", p, got, dims)
			}
		}
	}
	// A coordinate vector of the wrong length is a caller bug, not a vertex.
	ci := MustChainIndex(3, 4, 5)
	for name, f := range map[string]func(){
		"Join":      func() { ci.Join([]int64{1, 2}) },
		"SplitInto": func() { ci.SplitInto(7, make([]int64, 2)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s with 2 slots on a 3-factor index should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestChainIndexOverflow(t *testing.T) {
	if _, err := NewChainIndex([]int64{1 << 32, 1 << 32}); err == nil {
		t.Fatal("want overflow error for 2^32 × 2^32 vertices")
	}
	if _, err := NewChainIndex(nil); err == nil {
		t.Fatal("want error for empty dims")
	}
	if _, err := NewChainIndex([]int64{4, 0}); err == nil {
		t.Fatal("want error for zero dim")
	}
}

func TestCheckedMulAndProduct(t *testing.T) {
	if p, ok := CheckedMul(1<<31, 1<<31); !ok || p != 1<<62 {
		t.Fatalf("CheckedMul(2^31,2^31) = %d,%v", p, ok)
	}
	if _, ok := CheckedMul(1<<32, 1<<32); ok {
		t.Fatal("CheckedMul(2^32,2^32) should overflow")
	}
	if p, ok := CheckedMul(0, 1<<62); !ok || p != 0 {
		t.Fatalf("CheckedMul(0,big) = %d,%v", p, ok)
	}
	if _, ok := CheckedMul(-1, 2); ok {
		t.Fatal("CheckedMul rejects negatives")
	}
}

func TestNewChainValidation(t *testing.T) {
	if _, err := NewChain(); err == nil {
		t.Fatal("want error for empty chain")
	}
	g := cliqueWithLoops(3)
	if _, err := NewChain(g, nil, g); err == nil {
		t.Fatal("want error for nil factor")
	}
	if _, err := PowerChain(g, 0); err == nil {
		t.Fatal("want error for k = 0")
	}
}

// TestProductLeftFold holds DESIGN's left-fold identity: the product of
// a factor list is the product of its first k−1 factors times the last,
// Product(Product(A₁,A₂),A₃) = Product(A₁,A₂,A₃), and one factor is its
// own product.
func TestProductLeftFold(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 10; trial++ {
		a := randomGraph(rng, 4, true)
		b := randomGraph(rng, 3, false)
		c := randomGraph(rng, 4, true)
		for _, fs := range [][]*graph.Graph{{a}, {a, b, c}} {
			got, err := Product(fs...)
			if err != nil {
				t.Fatalf("Product: %v", err)
			}
			want := fs[0]
			for _, f := range fs[1:] {
				if want, err = Product(want, f); err != nil {
					t.Fatalf("Product: %v", err)
				}
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d k=%d: product differs from the left fold", trial, len(fs))
			}
		}
	}
}

// TestChainArcsOrderMatchesNestedLoop holds Chain.Arcs at k = 2 to
// Sec. II's nested loop, written out: every arc (i,j) of A outermost,
// every arc (k,l) of B inside it, yielding (γ(i,k), γ(j,l)) with
// γ(i,k) = i·n_B + k.
func TestChainArcsOrderMatchesNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := randomGraph(rng, 5, true)
	b := randomGraph(rng, 4, false)
	if a.NumArcs() < 2 || b.NumArcs() < 2 {
		t.Fatalf("factors need ≥ 2 arcs each for the order to show, got %d and %d", a.NumArcs(), b.NumArcs())
	}
	var want, got []graph.Edge
	nB := b.NumVertices()
	for _, x := range a.ArcSlice() {
		for _, y := range b.ArcSlice() {
			want = append(want, graph.Edge{U: x.U*nB + y.U, V: x.V*nB + y.V})
		}
	}
	chainOf(t, a, b).Arcs(func(u, v int64) bool {
		got = append(got, graph.Edge{U: u, V: v})
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("arc count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("arc %d: got %v, want %v (order must be Sec. II's nested loop)", i, got[i], want[i])
		}
	}
}

func TestChainArcsEarlyStop(t *testing.T) {
	ch := chainOf(t, cliqueWithLoops(3), cliqueWithLoops(2), cliqueWithLoops(2))
	seen := 0
	ch.Arcs(func(u, v int64) bool {
		seen++
		return seen < 5
	})
	if seen != 5 {
		t.Fatalf("early stop saw %d arcs, want 5", seen)
	}
}

func TestChainNumEdgesMatchesMaterialized(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		ch := chainOf(t,
			randomGraph(rng, 4, true),
			randomGraph(rng, 3, trial%2 == 0),
			randomGraph(rng, 3, true))
		g, err := Product(ch.Factors()...)
		if err != nil {
			t.Fatalf("Product: %v", err)
		}
		edges, arcs, err := ch.NumEdges()
		if err != nil {
			t.Fatalf("NumEdges: %v", err)
		}
		if arcs != g.NumArcs() || edges != g.NumEdges() {
			t.Fatalf("trial %d: closed form edges=%d arcs=%d, materialized edges=%d arcs=%d",
				trial, edges, arcs, g.NumEdges(), g.NumArcs())
		}
	}
}

func TestChainWithFullSelfLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	a, b := randomGraph(rng, 4, false), randomGraph(rng, 3, false)
	want, err := Product(a.WithFullSelfLoops(), b.WithFullSelfLoops())
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	got, err := Product(chainOf(t, a, b).WithFullSelfLoops().Factors()...)
	if err != nil {
		t.Fatalf("Product: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("chain +I differs from the product of the +I factors")
	}
}

func TestChainNumArcsOverflow(t *testing.T) {
	// A 2-vertex graph with 4 arcs (complete with loops): 4^32 arcs
	// overflows int64 while 2^32 vertices still... does not fit either,
	// so use a 1-vertex loop chain for vertices and check arcs via a
	// factor list that keeps n small: n=2, arcs=4, k=32 → n^32 = 2^64
	// overflows too. Instead: n=2 (2 vertices, 4 arcs), k=31:
	// vertices 2^31 ok, arcs 4^31 = 2^62 ok; k=32 overflows vertices
	// first. Use a 3-vertex, 9-arc factor: n^k = 3^k fits through k=39,
	// arcs 9^k overflows at k=21.
	f := cliqueWithLoops(3)
	ch, err := PowerChain(f, 21)
	if err != nil {
		t.Fatalf("PowerChain: %v", err)
	}
	if _, err := ch.NumArcs(); err == nil {
		t.Fatal("want arc-count overflow error at 9^21")
	}
	if _, _, err := ch.NumEdges(); err == nil {
		t.Fatal("want edge-count overflow error at 9^21")
	}
	if _, err := Product(ch.Factors()...); err == nil {
		t.Fatal("Product must refuse an overflowing chain")
	}
}

// tailCursorReference collects composed tail arcs through a materialized
// tail product, the slow oracle for TailCursor.
func tailCursorReference(t *testing.T, tail []*graph.Graph) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	ch := chainOf(t, tail...)
	ch.Arcs(func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	})
	return out
}

// expandPacked runs tc's packed walk to its end, at most max arcs a block,
// and returns the arcs, each block widened with its base plus (uBase,
// vBase).
func expandPacked(tc *TailCursor, uBase, vBase int64, max int) []graph.Edge {
	var out []graph.Edge
	buf := make([]uint64, 0, max)
	for {
		block, u0, v0 := tc.ExpandNextPacked(buf[:0], max)
		if len(block) == 0 {
			return out
		}
		out = ExpandPacked(out, block, uBase+u0, vBase+v0)
	}
}

// sparse is an n-vertex factor of five arcs on vertices 0, n/3 and n−1, so
// that the products and tails it is in reach both ends of their id range.
func sparse(tb testing.TB, n int64) *graph.Graph {
	tb.Helper()
	g, err := graph.New(n, []graph.Edge{{U: 0, V: 0}, {U: 0, V: n - 1}, {U: n / 3, V: n / 3}, {U: n - 1, V: 0}, {U: n - 1, V: n - 1}})
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

func TestTailCursorMatchesReference(t *testing.T) {
	eachTierRun(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for trial := 0; trial < 30; trial++ {
			m := 1 + rng.Intn(3)
			tail := make([]*graph.Graph, m)
			for d := range tail {
				tail[d] = randomGraph(rng, 4, d%2 == 0)
			}
			want := tailCursorReference(t, tail)
			tc := NewTailCursor(tail)
			if tc.Total() != int64(len(want)) {
				t.Fatalf("Total = %d, want %d", tc.Total(), len(want))
			}
			for _, batch := range []int{1, 3, 7, 1024} {
				tc.Reset()
				got := expandPacked(tc, 0, 0, batch)
				if len(got) != len(want) {
					t.Fatalf("trial %d batch %d: %d arcs, want %d", trial, batch, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("trial %d batch %d arc %d: got %v, want %v", trial, batch, i, got[i], want[i])
					}
				}
			}
		}
	})
}

func TestTailCursorExpandMatchesExpandBlock(t *testing.T) {
	eachTierRun(t, func(t *testing.T) {
		// With a materialized tail, the packed walk's blocks widened with
		// (aU·nT, aV·nT) must equal ExpandBlock(aArc, tailArcs, nT, …) —
		// the cursor IS the kernel's B-block, generated on the fly.
		rng := rand.New(rand.NewSource(53))
		tail := []*graph.Graph{randomGraph(rng, 4, true), randomGraph(rng, 3, true)}
		tailG, err := Product(tail...)
		if err != nil {
			t.Fatalf("Product: %v", err)
		}
		nT := tailG.NumVertices()
		aArc := graph.Edge{U: 2, V: 5}
		want := ExpandBlock(aArc, tailG.ArcSlice(), nT, nil)

		tc := NewTailCursor(tail)
		if tc.NumVertices() != nT {
			t.Fatalf("cursor NumVertices = %d, want %d", tc.NumVertices(), nT)
		}
		got := expandPacked(tc, aArc.U*nT, aArc.V*nT, 5)
		if len(got) != len(want) {
			t.Fatalf("%d arcs, want %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("arc %d: got %v, want %v", i, got[i], want[i])
			}
		}
	})
}

func TestTailCursorEmptyFactor(t *testing.T) {
	empty, err := graph.New(3, nil)
	if err != nil {
		t.Fatalf("graph.New: %v", err)
	}
	tc := NewTailCursor([]*graph.Graph{cliqueWithLoops(2), empty})
	if tc.Total() != 0 {
		t.Fatalf("Total = %d, want 0", tc.Total())
	}
	if block, _, _ := tc.ExpandNextPacked(nil, 16); len(block) != 0 {
		t.Fatalf("empty tail yielded %d arcs", len(block))
	}
}

// TestTailCursorNextSweepMatchesExpandNext is the contract the owner-side
// walk rests on: from every SeekTo position, for every max and for a budget
// that stops at the end or mid-sweep, the concatenation of NextSweep's
// windows — prefix and bases applied — is the packed walk's stream (the
// budget as one ExpandNextPacked call, widened with its blocks' bases), and
// a window stops short of its sweep's end only where max cut it — and
// ExpandNextPacked's blocks at every max, widened with their bases, and
// ExpandNext's arcs unpack to the same stream. A block is max arcs until
// the budget's last, with base (0, 0), where the tail has at
// most 2³² vertices; past that it may also end where its base changes, and
// only there. The tails are depths 1–3 over an innermost factor with
// isolated vertices first, in the middle and last, a 2D-style part of it
// (its arc window starts and ends mid-row), an empty factor, and sparse
// tails of two and three factors (those of k = 3 and k = 4 chains) of
// 2³² − 1, 2³² and 2³³ vertices, and of 2³⁷, two digits past 2³².
func TestTailCursorNextSweepMatchesExpandNext(t *testing.T) {
	eachTierRun(t, func(t *testing.T) {
		// Star on 1,3,5,6,7 around vertex 2, plus the edge 5–6; 0, 4 and 8 isolated.
		star, err := graph.NewUndirected(9, []graph.Edge{{U: 2, V: 1}, {U: 2, V: 3}, {U: 2, V: 5}, {U: 2, V: 6}, {U: 2, V: 7}, {U: 5, V: 6}})
		if err != nil {
			t.Fatal(err)
		}
		arcs := star.ArcSlice()
		part, err := graph.New(star.NumVertices(), arcs[2:len(arcs)-4]) // (2,3) … (5,2): mid-row 2 to mid-row 5
		if err != nil {
			t.Fatal(err)
		}
		empty, err := graph.New(3, nil)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(59))
		outer1, outer2 := randomGraph(rng, 3, true), randomGraph(rng, 3, false)
		sparse := func(n int64) *graph.Graph { return sparse(t, n) }
		tails := map[string][]*graph.Graph{
			"depth1":      {star},
			"depth1_part": {part},
			"depth2":      {outer1, star},
			"depth2_part": {outer1, part},
			"depth3":      {outer2, outer1, star},
			"empty_inner": {outer1, empty},
			"empty_outer": {empty, star},
			"k3_2^32-1":   {sparse(1<<16 - 1), sparse(1<<16 + 1)},
			"k3_2^32":     {sparse(1 << 16), sparse(1 << 16)},
			"k3_2^33":     {sparse(1 << 17), sparse(1 << 16)},
			"k4_2^32-1":   {sparse(3), sparse(21845), sparse(1<<16 + 1)},
			"k4_2^32":     {sparse(4), sparse(1 << 14), sparse(1 << 16)},
			"k4_2^33":     {sparse(4), sparse(1 << 15), sparse(1 << 16)},
			"k4_2^37":     {sparse(1 << 4), sparse(1 << 16), sparse(1 << 17)},
		}
		const uBase, vBase = 1000, 2000
		for name, tail := range tails {
			ref, tc := NewTailCursor(tail), NewTailCursor(tail)
			wide := tc.NumVertices() > 1<<32
			total := tc.Total()
			inner := tail[len(tail)-1].ArcSlice()
			for pos := int64(0); pos <= total; pos++ {
				for _, max := range []int64{1, 2, 3, 7, 1024} {
					for _, budget := range []int64{total - pos, (total - pos) / 2} {
						ref.SeekTo(pos)
						var want []graph.Edge
						for int64(len(want)) < budget {
							block, u0, v0 := ref.ExpandNextPacked(nil, int(budget-int64(len(want))))
							want = ExpandPacked(want, block, uBase+u0, vBase+v0)
						}
						tc.SeekTo(pos)
						var got []graph.Edge
						windows := int64(0)
						for int64(len(got)) < budget {
							lim := min(max, budget-int64(len(got)))
							lo, hi, uPre, vPre := tc.NextSweep(lim)
							if n := int64(hi - lo); n <= 0 || n > lim || hi > len(inner) {
								t.Fatalf("%s pos %d max %d: window [%d,%d) of %d arcs with %d of %d still due", name, pos, max, lo, hi, len(inner), budget-int64(len(got)), budget)
							}
							if hi < len(inner) && int64(hi-lo) < lim {
								t.Fatalf("%s pos %d max %d: window [%d,%d) stops short of the sweep's end %d and of max", name, pos, max, lo, hi, len(inner))
							}
							windows++
							for _, e := range inner[lo:hi] {
								got = append(got, graph.Edge{U: uBase + uPre + e.U, V: vBase + vPre + e.V})
							}
						}
						if len(got) != len(want) {
							t.Fatalf("%s pos %d max %d budget %d: %d arcs, want %d", name, pos, max, budget, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s pos %d max %d budget %d: arc %d = %v, the packed walk says %v", name, pos, max, budget, i, got[i], want[i])
							}
						}
						if pos == 0 && budget == total && max == 1024 && total > 0 && windows != total/int64(len(inner)) {
							t.Fatalf("%s: %d windows over the whole tail, want one per sweep = %d", name, windows, total/int64(len(inner)))
						}
						tc.SeekTo(pos)
						var packed []graph.Edge
						for int64(len(packed)) < budget {
							lim := int(min(max, budget-int64(len(packed))))
							block, u0, v0 := tc.ExpandNextPacked(make([]uint64, 0, 1), lim)
							if len(block) == 0 || len(block) > lim {
								t.Fatalf("%s pos %d max %d: ExpandNextPacked gave %d arcs with %d due, at most %d a block", name, pos, max, len(block), budget-int64(len(packed)), lim)
							}
							short := len(block) < lim && int64(len(packed)+len(block)) < budget
							if u1, v1 := tc.High(); !wide && (u0 != 0 || v0 != 0 || short) || wide && short && u1 == u0 && v1 == v0 {
								t.Fatalf("%s pos %d max %d: ExpandNextPacked gave %d arcs based at (%d, %d) with %d due, at most %d a block, the next based at (%d, %d)", name, pos, max, len(block), u0, v0, budget-int64(len(packed)), lim, u1, v1)
							}
							packed = ExpandPacked(packed, block, uBase+u0, vBase+v0)
						}
						for i, e := range packed {
							if e != want[i] {
								t.Fatalf("%s pos %d max %d budget %d: packed arc %d = %v, the packed walk says %v", name, pos, max, budget, i, e, want[i])
							}
						}
						tc.SeekTo(pos)
						var wide []graph.Edge
						for int64(len(wide)) < budget {
							n := len(wide)
							if wide = tc.ExpandNext(uBase, vBase, wide, int(min(int64(n)+max, budget))); len(wide) == n {
								t.Fatalf("%s pos %d max %d: ExpandNext gave no arcs with %d due", name, pos, max, budget-int64(n))
							}
						}
						if !slices.Equal(wide, want) {
							t.Fatalf("%s pos %d max %d budget %d: ExpandNext's %d arcs differ from the packed walk's %d", name, pos, max, budget, len(wide), len(want))
						}
					}
				}
			}
			tc.SeekTo(total)
			if lo, hi, _, _ := tc.NextSweep(16); lo != hi {
				t.Fatalf("%s: exhausted cursor yielded the window [%d,%d)", name, lo, hi)
			}
			tc.Reset()
			if lo, hi, _, _ := tc.NextSweep(0); lo != hi {
				t.Fatalf("%s: max 0 yielded the window [%d,%d)", name, lo, hi)
			}
		}
	})
}
