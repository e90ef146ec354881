package core

import (
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"testing"

	"kronlab/internal/graph"
)

// expandPerEdge is the test-local statement of what ExpandBlock and
// ExpandPacked compute: one append per arc, Go's wrapping +.
func expandPerEdge(out, run []graph.Edge, u0, v0 int64) []graph.Edge {
	for _, e := range run {
		out = append(out, graph.Edge{U: u0 + e.U, V: v0 + e.V})
	}
	return out
}

// canary is what arc i of a destination's backing array holds where the
// body under test must not write.
func canary(i int) graph.Edge { return graph.Edge{U: -0x5ca1ab1e - int64(i), V: 0x0ddba11 + int64(i)} }

// wrapBases are (u0, v0) pairs that include negatives and sums that wrap
// int64.
var wrapBases = [][2]int64{
	{0, 0},
	{1 << 40, 3 << 33},
	{-7, -1 << 50},
	{math.MaxInt64, math.MinInt64},
	{math.MinInt64, math.MaxInt64},
}

// eachTierRun runs f as one sub-test per body eachTier forces, and a body
// this host cannot run as a skipped sub-test naming what it lacks.
func eachTierRun(t *testing.T, f func(t *testing.T)) {
	eachTier(func(tier string) { t.Run(tier, f) },
		func(tier, missing string) { t.Run(tier, func(t *testing.T) { t.Skip("host lacks " + missing) }) })
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

// expandShape is one call shape of ExpandBlock: out is a window of a backing
// array starting off arcs in, with prefix arcs already in it and room for
// spare more; run starts off arcs into its own array. skewOut and skewRun
// pick each array's alignment.
type expandShape struct {
	off, prefix, spare int
	skewOut, skewRun   bool
	u0, v0             int64
}

// checkExpandBlock holds ExpandBlock, with the bases as its A-arc and
// nB = 1, to the per-edge loop for one run and call shape.
// Every arc of out's backing array outside the window is a canary.
// Checked: the result; the prefix and the canaries before the window and
// past len(out)+len(run) untouched; run unmodified; out grown exactly when
// spare < len(run), and written in place otherwise.
func checkExpandBlock(t *testing.T, arcs []graph.Edge, sh expandShape) {
	t.Helper()
	const guard = 3
	n, lo := len(arcs), sh.off+sh.prefix
	run := arcArray(sh.off+n, sh.skewRun)[sh.off:]
	copy(run, arcs)
	backing := arcArray(lo+sh.spare+guard, sh.skewOut)
	for i := range backing {
		backing[i] = canary(i)
	}
	out := backing[sh.off : lo : lo+sh.spare]
	want := expandPerEdge(slices.Clone(out), arcs, sh.u0, sh.v0)

	got := ExpandBlock(graph.Edge{U: sh.u0, V: sh.v0}, run, 1, out)
	if !slices.Equal(got, want) {
		t.Fatalf("ExpandBlock(len %d, %+v) = %v, want %v", n, sh, got, want)
	}
	if !slices.Equal(run, arcs) {
		t.Fatalf("ExpandBlock(len %d, %+v) modified run", n, sh)
	}
	grew := cap(got) != cap(out)
	if grew != (n > sh.spare) {
		t.Fatalf("ExpandBlock(len %d, %+v): cap %d -> %d", n, sh, cap(out), cap(got))
	}
	for i, e := range backing {
		w := canary(i)
		if !grew && i >= lo && i < lo+n {
			w = want[i-sh.off]
		}
		if e != w {
			t.Fatalf("ExpandBlock(len %d, %+v): backing[%d] = %v, want %v", n, sh, i, e, w)
		}
	}
}

// TestExpandBlockDifferential holds ExpandBlock to the per-edge loop
// (checkExpandBlock) for every run length 0–67 and a few long ones, at
// every start offset 0–3 of 16-byte-aligned and misaligned source and
// destination arrays, with and without a prefix already in out, with
// exact, spare and short capacity, over bases that include negatives and
// sums that wrap int64 — and with nB > 1, where the A-arc's offsets are
// its endpoints times nB.
func TestExpandBlockDifferential(t *testing.T) {
	if misaligned16(arcArray(8, false)) || !misaligned16(arcArray(8, true)) {
		t.Fatal("arcArray does not control 16-byte alignment on this platform; the misaligned cases would test nothing")
	}
	arcs := make([]graph.Edge, 492) // with off, prefix, spare and guard, fits a skewed
	for i := range arcs {
		arcs[i] = graph.Edge{U: int64(i) * 0x9e3779b97f4a7c, V: math.MaxInt64 - int64(i)*0x1234567}
	}
	arcs[2] = graph.Edge{U: math.MaxInt64, V: math.MinInt64}
	var lengths []int
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 135, 263, 492)
	for _, n := range lengths {
		for off := 0; off <= 3; off++ {
			base := wrapBases[(n+off)%len(wrapBases)]
			for align := 0; align < 4; align++ {
				for _, prefix := range []int{0, 1, 6} {
					sh := expandShape{off: off, prefix: prefix, skewOut: align&1 != 0, skewRun: align&2 != 0, u0: base[0], v0: base[1]}
					for _, spare := range []int{n, n + 2, n - 1, 0} { // exact, spare, one short, none
						if spare >= 0 {
							sh.spare = spare
							checkExpandBlock(t, arcs[:n], sh)
						}
					}
				}
			}
		}
	}
	if got := ExpandBlock(graph.Edge{U: 3, V: -2}, arcs[:9], 1<<20, nil); !slices.Equal(got, expandPerEdge(nil, arcs[:9], 3<<20, -2<<20)) {
		t.Fatalf("ExpandBlock(nB 2^20, nil out) = %v", got)
	}
	if got := ExpandBlock(graph.Edge{U: 1, V: 2}, nil, 7, nil); len(got) != 0 {
		t.Fatalf("ExpandBlock(nil, nil) = %v", got)
	}
}

// packedTwin returns arcs the way graph.PackedArcs lays them out, u |
// v<<32, starting off words into its array, and the arcs that stand for:
// each endpoint cut to its low 32 bits.
func packedTwin(arcs []graph.Edge, off int) ([]uint64, []graph.Edge) {
	src, twin := make([]uint64, off+len(arcs))[off:], make([]graph.Edge, len(arcs))
	for i, e := range arcs {
		u, v := uint32(e.U), uint32(e.V)
		src[i], twin[i] = uint64(u)|uint64(v)<<32, graph.Edge{U: int64(u), V: int64(v)}
	}
	return src, twin
}

// arcsAt returns a backing array of at least n arcs past index at, whose
// arc at sits rem bytes (a multiple of 8) past a 64-byte boundary.
func arcsAt(n int, rem uintptr) (backing []graph.Edge, at int) {
	backing = arcArray(n+3, rem%16 != 0)
	for at = 0; reflect.ValueOf(backing[at:]).Pointer()%64 != rem; at++ {
	}
	return backing, at
}

// checkAddPacked holds a packed body to the per-edge sum on the unpacked twin
// for one run, a source starting srcOff words into its array, a destination
// rem bytes past a 64-byte boundary and the bases: the result, every canary
// before and past the destination untouched, the source unmodified — and
// ExpandPacked, in the tier eachTier has forced, to the same result with a
// prefix in out.
func checkAddPacked(t *testing.T, name string, body func([]graph.Edge, []uint64, int64, int64), arcs []graph.Edge, srcOff int, rem uintptr, u0, v0 int64) {
	t.Helper()
	const guard = 3
	n := len(arcs)
	src, twin := packedTwin(arcs, srcOff)
	orig := slices.Clone(src)
	want := expandPerEdge(nil, twin, u0, v0)
	backing, at := arcsAt(n+guard, rem)
	for i := range backing {
		backing[i] = canary(i)
	}
	body(backing[at:at+n], src, u0, v0)
	for i, e := range backing {
		w := canary(i)
		if i >= at && i < at+n {
			w = want[i-at]
		}
		if e != w {
			t.Fatalf("%s(len %d, dst %d past 64, src +%d, base (%d, %d)): backing[%d] = %v, want %v", name, n, rem, srcOff, u0, v0, i-at, e, w)
		}
	}
	if !slices.Equal(src, orig) {
		t.Fatalf("%s(len %d, dst %d past 64) modified src", name, n, rem)
	}
	prefix := []graph.Edge{canary(-1)}
	if got := ExpandPacked(prefix, src, u0, v0); !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("ExpandPacked(len %d, base (%d, %d)) = %v, want %v after the prefix", n, u0, v0, got, want)
	}
}

// TestAddPackedDifferential holds each body of ExpandPacked — addPackedGo,
// and addPacked where the probe found AVX-512 — to the per-edge sum on the
// unpacked twin (checkAddPacked) for every length 0–67 —
// every remainder of addPacked's 16-arc loop behind every peel — and 79
// and 303 (16k + 15), at a destination 0, 16, 32 and 48 bytes past a
// 64-byte boundary (peels of 0, 3, 2 and 1 arcs) and 8 past (not 16-byte
// aligned: unpeeled), from a source at either 16-byte phase, over bases that
// wrap int64 and endpoints with bit 31 set (zero-extended, not
// sign-extended). A body this host cannot run is a skipped sub-test.
func TestAddPackedDifferential(t *testing.T) {
	arcs := make([]graph.Edge, 303)
	for i := range arcs {
		arcs[i] = graph.Edge{U: int64(uint32(i) * 0x9e3779b9), V: int64(math.MaxUint32 - uint32(i)*0x1234567)}
	}
	arcs[2] = graph.Edge{U: math.MaxUint32, V: 1 << 31}
	var lengths []int
	for n := 0; n <= 67; n++ {
		lengths = append(lengths, n)
	}
	lengths = append(lengths, 79, 303)
	for _, b := range []struct {
		name string
		f    func([]graph.Edge, []uint64, int64, int64)
		runs bool
	}{{"addPackedGo", addPackedGo, true}, {"addPacked", addPacked, hasAVX512}} {
		t.Run(b.name, func(t *testing.T) {
			if !b.runs {
				t.Skip("host lacks AVX512F or OS-enabled opmask and ZMM state: addPacked never runs here")
			}
			for _, n := range lengths {
				for i, rem := range []uintptr{0, 16, 32, 48, 8} {
					base := wrapBases[(n+i)%len(wrapBases)]
					checkAddPacked(t, b.name, b.f, arcs[:n], (n+i)%2, rem, base[0], base[1])
				}
			}
		})
	}
}

// wordsAt returns a backing array of at least n words past index at, whose
// word at sits rem bytes (a multiple of 8) past a 64-byte boundary.
func wordsAt(n int, rem uintptr) (backing []uint64, at int) {
	backing = make([]uint64, n+8)
	for at = 0; reflect.ValueOf(backing[at:]).Pointer()%64 != rem; at++ {
	}
	return backing, at
}

// wordCanary is what word i of a destination's backing array holds where
// the body under test must not write.
func wordCanary(i int) uint64 { return 0x5ca1ab1e0ddba11 ^ uint64(i)*0x9e3779b97f4a7c15 }

// wordBody is one body of the packed walk over a source of S, and whether
// it runs in the tier eachTier has forced.
type wordBody[S uint32 | uint64] struct {
	name string
	f    func(dst []uint64, src []S, base uint64)
	runs bool
}

// checkWordsTo holds the packed walk's bodies over a source of S — each of
// bodies that runs, and expand after a prefix in out — to the arcs
// computed one endpoint at a time, (u+u0) | (v+v0)<<32 for (u, v) = split(p),
// each sum checked to fit 32 bits, so an add that carried from U into V
// would not match, for one run, a destination rem bytes past a 64-byte
// boundary and the base: the result, every canary before and past the
// destination untouched, the source unmodified.
func checkWordsTo[S uint32 | uint64](t *testing.T, run []S, split func(S) (u, v uint64), bodies []wordBody[S], expand func(out []uint64, run []S, base uint64) []uint64, rem uintptr, u0, v0 uint64) {
	t.Helper()
	const guard = 9
	n := len(run)
	want := make([]uint64, n)
	for i, p := range run {
		u, v := split(p)
		if u, v = u+u0, v+v0; u >= 1<<32 || v >= 1<<32 {
			t.Fatalf("test case out of range: arc %#x + (%#x, %#x) needs more than 32 bits", p, u0, v0)
		}
		want[i] = u | v<<32
	}
	orig := slices.Clone(run)
	base := u0 | v0<<32
	for _, b := range bodies {
		if !b.runs {
			continue
		}
		backing, at := wordsAt(n+guard, rem)
		for i := range backing {
			backing[i] = wordCanary(i)
		}
		b.f(backing[at:at+n], run, base)
		for i, w := range backing {
			if i >= at && i < at+n {
				if w != want[i-at] {
					t.Fatalf("%s(len %d, dst %d past 64, base (%#x, %#x)): word %d = %#x, want %#x", b.name, n, rem, u0, v0, i-at, w, want[i-at])
				}
			} else if w != wordCanary(i) {
				t.Fatalf("%s(len %d, dst %d past 64): wrote backing[%d] outside the destination", b.name, n, rem, i)
			}
		}
		if !slices.Equal(run, orig) {
			t.Fatalf("%s(len %d, dst %d past 64) modified src", b.name, n, rem)
		}
	}
	prefix := []uint64{wordCanary(-1)}
	if got := expand(prefix, run, base); !slices.Equal(got, append(prefix, want...)) {
		t.Fatalf("expanding len %d, base (%#x, %#x) = %#x, want %#x after the prefix", n, u0, v0, got, want)
	}
}

// checkAddPackedTo is checkWordsTo for ExpandPackedTo over PackedArcs words:
// its body in the tier eachTier has forced, and addPackedToGo.
func checkAddPackedTo(t *testing.T, run []uint64, rem uintptr, u0, v0 uint64) {
	t.Helper()
	split := func(p uint64) (uint64, uint64) { return uint64(uint32(p)), p >> 32 }
	checkWordsTo(t, run, split, []wordBody[uint64]{{"addPackedTo", addPackedTo, true}, {"addPackedToGo", addPackedToGo, true}}, ExpandPackedTo, rem, u0, v0)
}

// TestAddPackedToDifferential holds ExpandPackedTo's body, in every tier
// eachTier forces, and its portable loop to the per-endpoint sum
// (checkAddPackedTo) for every length 0–70 — every remainder of the 16-
// and 8-arc loops behind every peel — and 2048, at a destination each
// 8-byte offset past a 64-byte boundary (the 256-bit peel's 0–3 arcs, the
// SSE2 one's 0–1), from a source at either 16-byte phase, over bases
// 0 and ones that put u0+u, v0+v or both at exactly 2³²−1 — the largest id
// of a tail of 2³² vertices — where an add that carried from U would
// show in V.
func TestAddPackedToDifferential(t *testing.T) {
	eachTierRun(t, func(t *testing.T) {
		const top = 1<<32 - 1
		words := make([]uint64, 2048+1)
		var maxU, maxV uint64
		for i := range words {
			u, v := uint64(uint32(i)*0x9e3779b9)>>1, uint64(0x7fffffff-uint32(i)*0x1234567)>>1
			if i%5 == 3 {
				u = 0x7fffffff // bit 30 and below set: the sums reach 2³²−1 in bit 31's carry-in
			}
			words[i] = u | v<<32
			maxU, maxV = max(maxU, u), max(maxV, v)
		}
		var lengths []int
		for n := 0; n <= 70; n++ {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, 2048)
		for _, n := range lengths {
			for _, off := range []int{0, 1} {
				run := words[off : off+n]
				var ru, rv uint64
				for _, p := range run {
					ru, rv = max(ru, uint64(uint32(p))), max(rv, p>>32)
				}
				for rem := uintptr(0); rem < 64; rem += 8 {
					for _, b := range [][2]uint64{{0, 0}, {top - ru, top - rv}, {top - ru, 0}, {0, top - rv}, {top - maxU, 1 << 20}} {
						checkAddPackedTo(t, run, rem, b[0], b[1])
					}
				}
			}
		}
		if got := ExpandPackedTo(nil, nil, 7); len(got) != 0 {
			t.Fatalf("ExpandPackedTo(nil, nil) = %v", got)
		}
	})
}

// checkAddNarrowTo is checkWordsTo for ExpandNarrowTo over NarrowArcs
// words, u | v<<16: addNarrowToGo in every tier and addNarrowTo where the
// tier eachTier has forced is avx512 — whose masked tail must write no word
// past len.
func checkAddNarrowTo(t *testing.T, run []uint32, rem uintptr, u0, v0 uint64) {
	t.Helper()
	split := func(p uint32) (uint64, uint64) { return uint64(p & 0xffff), uint64(p >> 16) }
	checkWordsTo(t, run, split, []wordBody[uint32]{{"addNarrowToGo", addNarrowToGo, true}, {"addNarrowTo", addNarrowTo, hasAVX512}}, ExpandNarrowTo, rem, u0, v0)
}

// TestAddNarrowToDifferential holds ExpandNarrowTo's bodies, in every tier
// eachTier forces — addNarrowTo in avx512, addNarrowToGo in every tier —
// to the per-endpoint sum (checkAddNarrowTo) for every length 0–70 — every
// remainder of the 32- and 8-arc loops and every masked tail of 1–7 — and
// 2048, at a destination each 8-byte offset past a 64-byte boundary, from a
// source at each 4-byte phase of a 16-byte line, over endpoints 0xffff and
// with bit 15 set (zero-extended, not sign-extended) and bases 0 and ones
// that put u0+u, v0+v or both at exactly 2³²−1, where an add that carried
// from U would show in V.
func TestAddNarrowToDifferential(t *testing.T) {
	eachTierRun(t, func(t *testing.T) {
		const top = 1<<32 - 1
		arcs := make([]uint32, 2048+3)
		for i := range arcs {
			u, v := uint32(i)*0x9e37&0xffff, 0xffff-uint32(i)*0x1235&0xffff
			if i%5 == 3 {
				u = 0xffff
			}
			arcs[i] = u | v<<16
		}
		var lengths []int
		for n := 0; n <= 70; n++ {
			lengths = append(lengths, n)
		}
		lengths = append(lengths, 2048)
		for _, n := range lengths {
			for _, off := range []int{0, 1, 2, 3} {
				run := arcs[off : off+n]
				var ru, rv uint64
				for _, p := range run {
					ru, rv = max(ru, uint64(p&0xffff)), max(rv, uint64(p>>16))
				}
				for rem := uintptr(0); rem < 64; rem += 8 {
					for _, b := range [][2]uint64{{0, 0}, {top - ru, top - rv}, {top - ru, 0}, {0, top - rv}, {1 << 31, 1 << 20}} {
						checkAddNarrowTo(t, run, rem, b[0], b[1])
					}
				}
			}
		}
		if got := ExpandNarrowTo(nil, nil, 7); len(got) != 0 {
			t.Fatalf("ExpandNarrowTo(nil, nil) = %v", got)
		}
	})
}

// FuzzExpand derives a run, a call shape and the bases from raw bytes and
// holds ExpandBlock to the per-edge loop (checkExpandBlock) — and, on every
// body this host can run: on the run cut to 32-bit endpoints, addPackedGo
// in every tier and addPacked in the avx512 one to its twin
// (checkAddPacked), the destination at the shape's offset and
// 16-byte phase; ExpandPackedTo's bodies on the run and bases cut to 31
// bits (checkAddPackedTo); and ExpandNarrowTo's on the run cut to 16-bit
// endpoints and the same bases (checkAddNarrowTo).
func FuzzExpand(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0), uint8(0), int64(0), int64(0))
	f.Add(make([]byte, 16*5), uint8(1|4), uint8(2), uint8(5), int64(-1), int64(math.MaxInt64))
	f.Add(make([]byte, 16*37+3), uint8(3|8), uint8(0), uint8(9), int64(math.MinInt64), int64(1)<<40)

	f.Fuzz(func(t *testing.T, raw []byte, shape, prefix, spare uint8, u0, v0 int64) {
		arcs := make([]graph.Edge, min(len(raw)/16, 200)) // both arrays fit a skewed
		for i := range arcs {
			rec := raw[i*16:]
			arcs[i] = graph.Edge{U: int64(binary.LittleEndian.Uint64(rec)), V: int64(binary.LittleEndian.Uint64(rec[8:]))}
		}
		sh := expandShape{
			off: int(shape % 4), prefix: int(prefix % 8), spare: int(spare),
			skewOut: shape&4 != 0, skewRun: shape&8 != 0, u0: u0, v0: v0,
		}
		// The run and bases again with every endpoint cut to 31 bits, so
		// each sum fits 32: ExpandPackedTo's domain.
		words, narrow := make([]uint64, len(arcs)), make([]uint32, len(arcs))
		for i, e := range arcs {
			words[i] = uint64(uint32(e.U)>>1) | uint64(uint32(e.V)>>1)<<32
			narrow[i] = uint32(uint16(e.U)) | uint32(uint16(e.V))<<16
		}
		rem := uintptr(16 * sh.off)
		if sh.skewOut {
			rem += 8
		}
		checkExpandBlock(t, arcs, sh)
		eachTier(func(tier string) {
			checkAddPacked(t, "addPackedGo", addPackedGo, arcs, int(prefix%2), rem, u0, v0)
			if tier == "avx512" {
				checkAddPacked(t, "addPacked", addPacked, arcs, int(prefix%2), rem, u0, v0)
			}
			checkAddPackedTo(t, words, rem, uint64(uint32(u0)>>1), uint64(uint32(v0)>>1))
			checkAddNarrowTo(t, narrow, rem, uint64(uint32(u0)>>1), uint64(uint32(v0)>>1))
		}, func(string, string) {})
	})
}

// sweepPiece is dist.DefaultBatchSize — the most arcs the engine asks of
// one body call — spelled out because core cannot import dist.
const sweepPiece = 1024

// benchArcs is a deterministic source of n arcs on 1024 vertices in CSR
// order — rows ascending, each row's targets scattered by a multiplicative
// hash — in the three layouts the bodies read: wide, packed (u | v<<32) and
// narrow (u | v<<16).
func benchArcs(n int) (wide []graph.Edge, packed []uint64, narrow []uint32) {
	for i := range n {
		u, v := uint32(i*1024/n), uint32(i)*2654435761%1024
		wide = append(wide, graph.Edge{U: int64(u), V: int64(v)})
		packed = append(packed, uint64(u)|uint64(v)<<32)
		narrow = append(narrow, u|v<<16)
	}
	return wide, packed, narrow
}

// BenchmarkExpand times the bodies in the shapes the engine feeds them, in
// ns/arc: the packed walk's ExpandPackedTo (<tier>_packed) in the sse2 and
// avx2 tiers, which an AVX-512 host also runs; in the avx512 tier
// ExpandNarrowTo (avx512_narrow) and ExpandPacked, the sinks' widening of a
// packed block; and ExpandBlock, the portable two-factor loop, and the
// per-edge append loop. Every source is benchArcs, written before the
// clock starts. sweep21k is the engine's k = 2 shape — a source of
// RMAT(10)'s arc count (20 964 arcs: 335 KB wide, 168 KB packed, 84 KB
// narrow, L2-resident distinct lines), swept in ≤ sweepPiece pieces into one
// reused, L1-resident block; sweep1k is the same walk over a source that
// fits L1 beside the block; sweep21k_dst16 is sweep21k into a block 16
// bytes past a 32-byte boundary (8 for a packed block; the packed bodies
// peel up to an aligned one); len20 is one CSR row of a skewed
// factor, call included (a rank's share of a short sweep at large R). A
// benchmark that reads one long run into an equally long out is bound by
// store misses instead and cannot tell the bodies apart.
func BenchmarkExpand(b *testing.B) {
	shapes := []struct {
		name       string
		src, piece int
		dstRem     uintptr // the block's first arc, in bytes past a 64-byte boundary
	}{{"len20", 20, 20, 0}, {"sweep1k", 1024, sweepPiece, 0}, {"sweep21k", 20964, sweepPiece, 0}, {"sweep21k_dst16", 20964, sweepPiece, 16}}
	rows := func(name string, body func(out, run []graph.Edge, packed []uint64, u0, v0 int64) []graph.Edge) {
		for _, sh := range shapes {
			src, packed, _ := benchArcs(sh.src)
			backing, at := arcsAt(sh.piece, sh.dstRem)
			block := backing[at : at : at+sh.piece]
			b.Run(name+"/"+sh.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < len(src); lo += sh.piece {
						hi := min(lo+sh.piece, len(src))
						block = body(block[:0], src[lo:hi], packed[lo:hi], int64(i), 7)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(len(src))), "ns/arc")
			})
		}
	}
	// wordRows is rows for the packed walk's bodies: the same pieces into an
	// 8-byte block, from a packed source (ExpandPackedTo) or a narrow one
	// (ExpandNarrowTo).
	wordRows := func(name string, body func(out, packed []uint64, narrow []uint32, base uint64) []uint64) {
		for _, sh := range shapes {
			_, packed, narrow := benchArcs(sh.src)
			backing, at := wordsAt(sh.piece, sh.dstRem/2)
			block := backing[at : at : at+sh.piece]
			b.Run(name+"/"+sh.name, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for lo := 0; lo < sh.src; lo += sh.piece {
						hi := min(lo+sh.piece, sh.src)
						block = body(block[:0], packed[lo:hi], narrow[lo:hi], uint64(i&0xffff)|7<<32)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/(float64(b.N)*float64(sh.src)), "ns/arc")
			})
		}
	}
	eachTier(func(tier string) {
		if tier != "avx512" {
			wordRows(tier+"_packed", func(out, packed []uint64, _ []uint32, base uint64) []uint64 { return ExpandPackedTo(out, packed, base) })
			return
		}
		wordRows(tier+"_narrow", func(out, _ []uint64, narrow []uint32, base uint64) []uint64 { return ExpandNarrowTo(out, narrow, base) })
		rows(tier, func(out, _ []graph.Edge, packed []uint64, u0, v0 int64) []graph.Edge {
			return ExpandPacked(out, packed, u0, v0)
		})
	}, func(tier, missing string) { b.Run(tier, func(b *testing.B) { b.Skip("host lacks " + missing) }) })
	rows("expandBlock", func(out, run []graph.Edge, _ []uint64, u0, v0 int64) []graph.Edge {
		return ExpandBlock(graph.Edge{U: u0, V: v0}, run, 1, out)
	})
	rows("perEdge", func(out, run []graph.Edge, _ []uint64, u0, v0 int64) []graph.Edge {
		return expandPerEdge(out, run, u0, v0)
	})
}
