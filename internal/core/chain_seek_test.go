package core

import (
	"slices"
	"testing"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// chainArcsRef collects the chain's full arc stream serially — the
// reference order every seek test compares against.
func chainArcsRef(t testing.TB, c *Chain) []graph.Edge {
	t.Helper()
	total, err := c.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	out := make([]graph.Edge, 0, total)
	c.Arcs(func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	})
	return out
}

func TestTailCursorSeekTo(t *testing.T) {
	tail := []*graph.Graph{gen.ER(5, 0.5, 11), gen.Ring(4), gen.ER(3, 0.7, 12)}
	ref := NewTailCursor(tail)
	want := expandPacked(ref, 0, 0, 1<<20)
	total := ref.Total()
	if int64(len(want)) != total {
		t.Fatalf("reference stream has %d arcs, Total() says %d", len(want), total)
	}

	// Seeking to pos then expanding everything must reproduce the
	// reference tail from pos — for every position, including 0 and the
	// exhausted position total.
	for pos := int64(0); pos <= total; pos++ {
		cur := NewTailCursor(tail)
		cur.SeekTo(pos)
		got := expandPacked(cur, 0, 0, 7) // odd max to cross run boundaries
		if int64(len(got)) != total-pos {
			t.Fatalf("SeekTo(%d): got %d arcs, want %d", pos, len(got), total-pos)
		}
		for i, e := range got {
			if e != want[pos+int64(i)] {
				t.Fatalf("SeekTo(%d): arc %d = %v, want %v", pos, i, e, want[pos+int64(i)])
			}
		}
	}
}

// TestTailCursorWindow: a cursor windowed to arcs [lo, hi) of its first
// factor enumerates what a cursor over that range as a graph does — at
// m = 1, where the window cuts the innermost factor, and at m = 2 — from
// every position, its NextSweep windows relative to lo at m = 1; one cursor
// re-windowed serves every range, and Window(0, len) is the whole tail again.
func TestTailCursorWindow(t *testing.T) {
	first, rest := gen.PrefAttach(9, 2, 13), gen.ER(4, 0.6, 14)
	arcs := first.ArcSlice()
	for _, tail := range [][]*graph.Graph{{first}, {first, rest}} {
		cur := NewTailCursor(tail)
		for _, w := range [][2]int{{0, len(arcs)}, {3, 17}, {5, 5}, {len(arcs) - 4, len(arcs)}, {0, 1}} {
			part, err := graph.New(first.NumVertices(), arcs[w[0]:w[1]])
			if err != nil {
				t.Fatal(err)
			}
			ref := NewTailCursor(append([]*graph.Graph{part}, tail[1:]...))
			want := expandPacked(ref, 0, 0, 1<<20)
			cur.Window(w[0], w[1])
			if cur.Total() != int64(len(want)) {
				t.Fatalf("m=%d window %v: Total %d, want %d", len(tail), w, cur.Total(), len(want))
			}
			for pos := int64(0); pos <= cur.Total(); pos++ {
				cur.SeekTo(pos)
				if got := expandPacked(cur, 0, 0, 5); !slices.Equal(got, want[pos:]) {
					t.Fatalf("m=%d window %v, SeekTo(%d): got %v, want %v", len(tail), w, pos, got, want[pos:])
				}
			}
			cur.Reset()
			if lo, hi, _, _ := cur.NextSweep(1 << 20); len(tail) == 1 && (lo != 0 || hi != w[1]-w[0]) {
				t.Fatalf("window %v: the first sweep is [%d, %d), want [0, %d)", w, lo, hi, w[1]-w[0])
			}
		}
	}
}

func TestTailCursorSeekToPanicsOutOfRange(t *testing.T) {
	tail := []*graph.Graph{gen.Ring(3)}
	for _, pos := range []int64{-1, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SeekTo(%d) did not panic", pos)
				}
			}()
			NewTailCursor(tail).SeekTo(pos)
		}()
	}
}

func TestChainArcsFromMatchesArcs(t *testing.T) {
	for _, tc := range []struct {
		name    string
		factors []*graph.Graph
	}{
		{"k2", []*graph.Graph{gen.PrefAttach(7, 2, 21), gen.ER(5, 0.5, 22)}},
		{"k3", []*graph.Graph{gen.ER(4, 0.6, 23), gen.Ring(3), gen.ER(3, 0.8, 24)}},
		// Products past 2³² vertices: the packed walk's blocks carry a
		// non-zero base, the outer digits past the lowest 2³² ids.
		{"k3_2^51", []*graph.Graph{sparse(t, 1<<17), sparse(t, 1<<17), sparse(t, 1<<17)}},
		{"k2_2^36", []*graph.Graph{sparse(t, 1<<20), sparse(t, 1<<16)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eachTierRun(t, func(t *testing.T) {
				ch, err := NewChain(tc.factors...)
				if err != nil {
					t.Fatal(err)
				}
				want := chainArcsRef(t, ch)
				total := int64(len(want))
				for _, off := range []int64{0, 1, total / 3, total / 2, total - 1, total} {
					var got []graph.Edge
					n, err := ch.ArcsFrom(off, func(u, v int64) bool {
						got = append(got, graph.Edge{U: u, V: v})
						return true
					})
					if err != nil {
						t.Fatalf("ArcsFrom(%d): %v", off, err)
					}
					if n != total {
						t.Fatalf("ArcsFrom(%d) total = %d, want %d", off, n, total)
					}
					if int64(len(got)) != total-off {
						t.Fatalf("ArcsFrom(%d): %d arcs, want %d", off, len(got), total-off)
					}
					for i, e := range got {
						if e != want[off+int64(i)] {
							t.Fatalf("ArcsFrom(%d): arc %d = %v, want %v", off, i, e, want[off+int64(i)])
						}
					}
				}
			})
		})
	}
}

func TestChainArcsFromRejectsBadOffset(t *testing.T) {
	ch, err := NewChain(gen.Ring(3), gen.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	total, err := ch.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{-1, total + 1} {
		if _, err := ch.ArcsFrom(off, func(u, v int64) bool { return true }); err == nil {
			t.Errorf("ArcsFrom(%d) accepted an out-of-range offset", off)
		}
	}
}

func TestChainArcsFromEarlyStop(t *testing.T) {
	ch, err := NewChain(gen.ER(6, 0.5, 25), gen.ER(6, 0.5, 26))
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	if _, err := ch.ArcsFrom(3, func(u, v int64) bool {
		count++
		return count < 5
	}); err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Fatalf("yield called %d times after returning false, want 5", count)
	}
}

// BenchmarkSeek pins the tentpole's cost claim: positioning the stream
// at offset N is O(k) mixed-radix division plus O(tiles) plan walking —
// independent of N. Each case seeks to a different offset magnitude in
// the same large chain and reads a fixed 1024-arc window; if seek cost
// grew with the offset the far cases would be visibly slower.
func BenchmarkSeek(b *testing.B) {
	factors := []*graph.Graph{
		gen.PrefAttach(64, 3, 41),
		gen.ER(64, 0.25, 42),
		gen.ER(32, 0.25, 43),
	}
	ch, err := NewChain(factors...)
	if err != nil {
		b.Fatal(err)
	}
	total, err := ch.NumArcs()
	if err != nil {
		b.Fatal(err)
	}
	const window = 1024
	for _, tc := range []struct {
		name   string
		offset int64
	}{
		{"offset-0", 0},
		{"offset-1e3", 1_000},
		{"offset-mid", total / 2},
		{"offset-end", total - window},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				got := 0
				_, err := ch.ArcsFrom(tc.offset, func(u, v int64) bool {
					got++
					return got < window
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tc.offset), "offset")
		})
	}
}
