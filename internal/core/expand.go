package core

import (
	"slices"

	"kronlab/internal/graph"
)

// ExpandPacked appends (u0+u, v0+v) to out for every arc u | v<<32 of run,
// a graph.PackedArcs run, and returns it: how a sink widens a packed block,
// with the block's base, into the graph.Edge buffer it copies into. It has
// append's semantics — out[:len(out)] kept, out grown by append's rule when
// short (recycled buffers may have any capacity), nothing past the new
// length written, run only read — and the adds wrap like Go's + on int64;
// out's spare capacity and run must not overlap. Where the start-up probe
// found AVX-512 the body is addPacked, four arcs per 512-bit VPMOVZXDQ;
// elsewhere addPackedGo.
func ExpandPacked(out []graph.Edge, run []uint64, u0, v0 int64) []graph.Edge {
	n := len(out)
	out = slices.Grow(out, len(run))[:n+len(run)]
	if hasAVX512 {
		addPacked(out[n:], run, u0, v0)
	} else {
		addPackedGo(out[n:], run, u0, v0)
	}
	return out
}

// ExpandPackedTo is the packed walk's primitive: it appends run[i] + base
// to out for every arc of run, where run is graph.PackedArcs words
// (u | v<<32) and base is u0 | v0<<32, with ExpandPacked's append
// semantics. The caller promises u0+u and v0+v stay below 2³² for every
// arc — true of a tail arc taken relative to its block's base
// (TailCursor.ExpandNextPacked) — so the one 64-bit add per arc cannot
// carry from U into V, and out holds the arcs (u0+u, v0+v) in the same
// layout, 8 bytes each: half what ExpandPacked stores.
// TailCursor.ExpandNextPacked (one call per innermost-factor sweep) and the
// distributed engine's owner-side walk call it on every host. On amd64 the
// body is addPackedTo, whose 256- or 128-bit loop the start-up probe picks;
// elsewhere addPackedToGo.
func ExpandPackedTo(out, run []uint64, base uint64) []uint64 {
	n := len(out)
	out = slices.Grow(out, len(run))[:n+len(run)]
	addPackedTo(out[n:], run, base)
	return out
}

// ExpandNarrowTo is ExpandPackedTo over a graph.NarrowArcs run — each arc
// u | v<<16, 4 bytes — with its append semantics and caller promise: it
// appends (u | v<<32) + base to out for every arc of run, so out holds the
// same words ExpandPackedTo makes of the factor's PackedArcs, from half the
// bytes read. Where the start-up probe found AVX-512 the body is
// addNarrowTo, 32 arcs per iteration of 512-bit VPMOVZXWD; elsewhere it is
// addNarrowToGo, so it is correct on every host, but only an AVX-512 host
// reads a factor narrow (SourceOf).
func ExpandNarrowTo(out []uint64, run []uint32, base uint64) []uint64 {
	n := len(out)
	out = slices.Grow(out, len(run))[:n+len(run)]
	if hasAVX512 {
		addNarrowTo(out[n:], run, base)
	} else {
		addNarrowToGo(out[n:], run, base)
	}
	return out
}

// Source is an innermost factor's arcs, or a window of them, in the layout
// the packed walk reads: its NarrowArcs or its PackedArcs, as SourceOf
// decides once per factor. TailCursor.ExpandNextPacked and the distributed
// engine's owner-side picks hold one, so a pick reads the layout the cursor
// reads.
type Source struct {
	packed []uint64 // PackedArcs; unused where narrow is set
	narrow []uint32 // NarrowArcs, where the factor reads narrow; else nil
}

// SourceOf returns g's arcs as the packed walk reads them, the one choice of
// layout: narrow (4 bytes an arc, ExpandNarrowTo) where g has at most 2¹⁶
// vertices and the probe found AVX-512, packed (8 bytes, ExpandPackedTo)
// everywhere else. An AVX2 loop over narrow arcs measured no faster than
// addPackedTo's (DESIGN §3a), so an AVX2 or SSE2 host reads packed. g must
// have at most 2³² vertices, or it has no packed layout.
func SourceOf(g *graph.Graph) Source {
	if hasAVX512 {
		if narrow := g.NarrowArcs(); narrow != nil {
			return Source{narrow: narrow}
		}
	}
	return Source{packed: g.PackedArcs()}
}

// Len returns the number of arcs in s, whichever of its slices holds them.
func (s Source) Len() int { return max(len(s.packed), len(s.narrow)) }

// Narrow reports whether s is read narrow.
func (s Source) Narrow() bool { return s.narrow != nil }

// Slice returns arcs [lo, hi) of s, in s's layout.
func (s Source) Slice(lo, hi int) Source {
	if s.narrow != nil {
		return Source{narrow: s.narrow[lo:hi]}
	}
	return Source{packed: s.packed[lo:hi]}
}

// Grouped returns a copy of s, a whole factor's arcs, with its rows
// regrouped in s's layout: row u, the arcs at [off[u], off[u+1]), goes
// whole and in order to group key[u], and group c starts at arc at[c].
func (s Source) Grouped(off []int64, key []int32, at []int) Source {
	if s.narrow != nil {
		return Source{narrow: grouped(s.narrow, off, key, at)}
	}
	return Source{packed: grouped(s.packed, off, key, at)}
}

func grouped[T any](src []T, off []int64, key []int32, at []int) []T {
	dst, next := make([]T, len(src)), slices.Clone(at)
	for u, k := range key {
		next[k] += copy(dst[next[k]:], src[off[u]:off[u+1]])
	}
	return dst
}

// ExpandSourceTo is the packed walk's primitive over a Source: it appends
// every arc of run, in graph.PackedArcs' layout, plus base to out, through
// ExpandNarrowTo or ExpandPackedTo as the source's layout is, with their
// append semantics and caller promise.
func ExpandSourceTo(out []uint64, run Source, base uint64) []uint64 {
	if run.narrow != nil {
		return ExpandNarrowTo(out, run.narrow, base)
	}
	return ExpandPackedTo(out, run.packed, base)
}

// addPackedGo writes dst[i] = (u0 + uint32(src[i]), v0 + src[i]>>32) for
// every i; dst must be at least as long as src: ExpandPacked's body where
// the probe found no AVX-512, and the reference addPacked is tested against.
func addPackedGo(dst []graph.Edge, src []uint64, u0, v0 int64) {
	dst = dst[:len(src)]
	for i, p := range src {
		dst[i] = graph.Edge{U: u0 + int64(uint32(p)), V: v0 + int64(p>>32)}
	}
}

// addPackedToGo writes dst[i] = src[i] + base for every i: the portable
// body of ExpandPackedTo and the reference its assembly is tested against.
func addPackedToGo(dst, src []uint64, base uint64) {
	dst = dst[:len(src)]
	for i, p := range src {
		dst[i] = p + base
	}
}

// addNarrowToGo writes dst[i] = (u | v<<32) + base for every arc u | v<<16
// of src: the portable body of ExpandNarrowTo and the reference its
// assembly is tested against.
func addNarrowToGo(dst []uint64, src []uint32, base uint64) {
	dst = dst[:len(src)]
	for i, p := range src {
		dst[i] = (uint64(p&0xffff) | uint64(p>>16)<<32) + base
	}
}
