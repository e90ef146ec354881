package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"kronlab/internal/graph"
)

// expandRunPerEdge is the test-local statement of what ExpandRun computes:
// one append per arc, Go's wrapping +.
func expandRunPerEdge(out, run []graph.Edge, u0, v0 int64) []graph.Edge {
	for _, e := range run {
		out = append(out, graph.Edge{U: u0 + e.U, V: v0 + e.V})
	}
	return out
}

// skewed is an array of arcs that starts 8 bytes into a 16-byte-aligned
// allocation: slices of arcs are misaligned for a 128-bit access, which
// slices of a make([]graph.Edge, n) — whose size classes are all
// multiples of 16 — never are.
type skewed struct {
	pad  int64
	arcs [512]graph.Edge
}

// arcArray returns n arcs whose first is 16-byte aligned, or is not.
func arcArray(n int, misaligned bool) []graph.Edge {
	if misaligned {
		return new(skewed).arcs[:n:n]
	}
	return make([]graph.Edge, n)
}

func misaligned16(s []graph.Edge) bool { return reflect.ValueOf(s).Pointer()%16 != 0 }

// expandShape is one call shape of ExpandRun: out is a window of a backing
// array starting off arcs in, with prefix arcs already in it and room for
// spare more; run starts off arcs into its own array. skewOut and skewRun
// pick each array's alignment.
type expandShape struct {
	off, prefix, spare int
	skewOut, skewRun   bool
	u0, v0             int64
}

// checkExpandRun holds ExpandRun (the assembly on amd64) and addEdgesGo
// (the portable loop) to the per-edge loop for one run and call shape.
// Every arc of out's backing array outside the window is a canary.
// Checked: the result; the prefix and the canaries before the window and
// past len(out)+len(run) untouched; run unmodified; out grown exactly when
// spare < len(run), and written in place otherwise.
func checkExpandRun(t *testing.T, arcs []graph.Edge, sh expandShape) {
	t.Helper()
	const guard = 3
	canary := func(i int) graph.Edge { return graph.Edge{U: -0x5ca1ab1e - int64(i), V: 0x0ddba11 + int64(i)} }
	n, lo := len(arcs), sh.off+sh.prefix
	run := arcArray(sh.off+n, sh.skewRun)[sh.off:]
	copy(run, arcs)
	backing := arcArray(lo+sh.spare+guard, sh.skewOut)
	for i := range backing {
		backing[i] = canary(i)
	}
	out := backing[sh.off : lo : lo+sh.spare]
	want := expandRunPerEdge(slices.Clone(out), arcs, sh.u0, sh.v0)

	got := ExpandRun(out, run, sh.u0, sh.v0)
	if !slices.Equal(got, want) {
		t.Fatalf("ExpandRun(len %d, %+v) = %v, want %v", n, sh, got, want)
	}
	if !slices.Equal(run, arcs) {
		t.Fatalf("ExpandRun(len %d, %+v) modified run", n, sh)
	}
	grew := cap(got) != cap(out)
	if grew != (n > sh.spare) {
		t.Fatalf("ExpandRun(len %d, %+v): cap %d -> %d", n, sh, cap(out), cap(got))
	}
	for i, e := range backing {
		w := canary(i)
		if !grew && i >= lo && i < lo+n {
			w = want[i-sh.off]
		}
		if e != w {
			t.Fatalf("ExpandRun(len %d, %+v): backing[%d] = %v, want %v", n, sh, i, e, w)
		}
	}

	dst := arcArray(n+guard, sh.skewOut)
	for i := range dst {
		dst[i] = canary(i)
	}
	addEdgesGo(dst[:n], run, sh.u0, sh.v0)
	if !slices.Equal(dst[:n], want[sh.prefix:]) {
		t.Fatalf("addEdgesGo(len %d, %+v) = %v, want %v", n, sh, dst[:n], want[sh.prefix:])
	}
	for i := n; i < len(dst); i++ {
		if dst[i] != canary(i) {
			t.Fatalf("addEdgesGo(len %d, %+v) wrote past the run at %d", n, sh, i)
		}
	}
}

// TestExpandRunDifferential walks every run length 0–67 (every remainder
// of the 4-way unroll, many times over) at every start offset 0–3 of
// 16-byte-aligned and misaligned source and destination arrays, with and
// without a prefix already in out, with exact, spare and short capacity,
// over bases that include negatives and sums that wrap int64.
func TestExpandRunDifferential(t *testing.T) {
	if misaligned16(arcArray(8, false)) || !misaligned16(arcArray(8, true)) {
		t.Fatal("arcArray does not control 16-byte alignment on this platform; the misaligned cases would test nothing")
	}
	bases := [][2]int64{
		{0, 0},
		{1 << 40, 3 << 33},
		{-7, -1 << 50},
		{math.MaxInt64, math.MinInt64},
		{math.MinInt64, math.MaxInt64},
	}
	arcs := make([]graph.Edge, 67)
	for i := range arcs {
		arcs[i] = graph.Edge{U: int64(i) * 0x9e3779b97f4a7c, V: math.MaxInt64 - int64(i)*0x1234567}
	}
	arcs[2] = graph.Edge{U: math.MaxInt64, V: math.MinInt64}
	for n := 0; n <= 67; n++ {
		for off := 0; off <= 3; off++ {
			base := bases[(n+off)%len(bases)]
			for align := 0; align < 4; align++ {
				for _, prefix := range []int{0, 1, 6} {
					sh := expandShape{off: off, prefix: prefix, skewOut: align&1 != 0, skewRun: align&2 != 0, u0: base[0], v0: base[1]}
					for _, spare := range []int{n, n + 2, n - 1, 0} { // exact, spare, one short, none
						if spare >= 0 {
							sh.spare = spare
							checkExpandRun(t, arcs[:n], sh)
						}
					}
				}
			}
		}
	}
	if got := ExpandRun(nil, arcs[:9], 1, 2); !slices.Equal(got, expandRunPerEdge(nil, arcs[:9], 1, 2)) {
		t.Fatalf("ExpandRun(nil, …) = %v", got)
	}
	if got := ExpandRun(nil, nil, 1, 2); len(got) != 0 {
		t.Fatalf("ExpandRun(nil, nil) = %v", got)
	}
}

// FuzzExpandRun derives a run, a call shape and the bases from raw bytes
// and holds ExpandRun and addEdgesGo to the per-edge loop (checkExpandRun).
func FuzzExpandRun(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), int64(0), int64(0))
	f.Add(make([]byte, 16*5), uint8(1|4), uint8(2), uint8(5), int64(-1), int64(math.MaxInt64))
	f.Add(make([]byte, 16*37+3), uint8(3|8), uint8(0), uint8(9), int64(math.MinInt64), int64(1)<<40)

	f.Fuzz(func(t *testing.T, raw []byte, shape, prefix, spare uint8, u0, v0 int64) {
		arcs := make([]graph.Edge, min(len(raw)/16, 200)) // both arrays fit a skewed
		for i := range arcs {
			rec := raw[i*16:]
			arcs[i] = graph.Edge{U: int64(binary.LittleEndian.Uint64(rec)), V: int64(binary.LittleEndian.Uint64(rec[8:]))}
		}
		checkExpandRun(t, arcs, expandShape{
			off: int(shape % 4), prefix: int(prefix % 8), spare: int(spare),
			skewOut: shape&4 != 0, skewRun: shape&8 != 0, u0: u0, v0: v0,
		})
	})
}

// BenchmarkExpandRun times the primitive (the assembly on amd64), the
// portable loop and the per-edge append loop it replaced on the two run
// lengths the engine has fed it: a whole batch (ExpandNext over a long
// innermost sweep) and a CSR row of a skewed factor (≈ 20 arcs: the row
// router's calls, until owner-side generation replaced it — and what a
// rank's share of a short sweep still is at large R).
func BenchmarkExpandRun(b *testing.B) {
	bodies := []struct {
		name string
		f    func(out, run []graph.Edge, u0, v0 int64) []graph.Edge
	}{
		{"ExpandRun", ExpandRun},
		{"portable", func(out, run []graph.Edge, u0, v0 int64) []graph.Edge {
			out = out[:len(run)]
			addEdgesGo(out, run, u0, v0)
			return out
		}},
		{"perEdge", expandRunPerEdge},
	}
	for _, n := range []int{20, 4096} {
		run := make([]graph.Edge, n)
		out := make([]graph.Edge, 0, n)
		for _, body := range bodies {
			b.Run(fmt.Sprintf("%s/len%d", body.name, n), func(b *testing.B) {
				b.SetBytes(int64(n) * 16)
				for i := 0; i < b.N; i++ {
					out = body.f(out[:0], run, int64(i), 7)
				}
			})
		}
	}
}
