package core

import (
	"kronlab/internal/cpu"
	"kronlab/internal/graph"
)

// addPacked is addPackedGo in assembly (expand_amd64.s): dst[i] = (u0 +
// uint32(src[i]), v0 + src[i]>>32), four arcs per 512-bit VPMOVZXDQ. It
// runs only where hasAVX512 is set; len(dst) ≥ len(src).
//
//go:noescape
func addPacked(dst []graph.Edge, src []uint64, u0, v0 int64)

// addPackedTo is addPackedToGo in assembly: dst[i] = src[i] + base for
// every i, at 256 or 128 bits an add as the probe found. It reads len(src)
// words and writes as many, so len(dst) ≥ len(src).
//
//go:noescape
func addPackedTo(dst, src []uint64, base uint64)

// addNarrowTo is addNarrowToGo in assembly: dst[i] = src[i] widened from
// u | v<<16 to u | v<<32, plus base, 32 arcs per iteration of 512-bit
// VPMOVZXWD and the remainder under one opmask. It runs only where
// hasAVX512 is set; len(dst) ≥ len(src).
//
//go:noescape
func addNarrowTo(dst []uint64, src []uint32, base uint64)

// hasAVX2 puts addPackedTo's 256-bit loop in front of its SSE2 one, and
// hasAVX512 gives ExpandPacked — the sinks' widening of packed blocks —
// addPacked for its body and lets SourceOf read a factor of at most 2¹⁶
// vertices narrow, through addNarrowTo. They are cpu.Probe's answers, read
// once, here, and only tests set them afterwards: the machine picks the
// body, not a flag.
var hasAVX2, hasAVX512 = cpu.Probe()

// Kernel names the probe's tier — "avx512", "avx2", "sse2", or off amd64
// "portable": rates from two hosts compare only next to it. The engine's
// walk runs addPackedTo's loop of the widest tier up to AVX2, for every
// product, and so does every other arc the module writes (Chain.ArcsFrom
// walks the same cursor). "avx512" adds addNarrowTo, which the walk runs over an innermost factor of at most
// 2¹⁶ vertices (SourceOf), and addPacked, with which the sinks widen packed
// blocks. It also names gen.RMAT's body: gen reads the same probe, and
// "avx512" is where it draws eight outputs per instruction (rmatBlock),
// every other tier where it draws one at a time.
func Kernel() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX2:
		return "avx2"
	}
	return "sse2"
}
