package core

import "kronlab/internal/graph"

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

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// hasAVX2 puts addPackedTo's 256-bit loop in front of its SSE2 one, and
// hasAVX512 gives ExpandPacked — the sinks' widening of packed blocks —
// addPacked for its body and lets SourceOf read a factor of at most 2¹⁶
// vertices narrow, through addNarrowTo. They are probed once,
// here, and only tests set them afterwards: the machine picks the body, not
// a flag.
var hasAVX2, hasAVX512 = probe()

func probe() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	_, leaf7EBX, _, _ := cpuid(7, 0) // junk past maxLeaf, which the From functions check
	var xcr0 uint32
	if leaf1ECX&(1<<27) != 0 { // XGETBV faults without OSXSAVE
		xcr0 = xgetbv()
	}
	return avx2From(maxLeaf, leaf1ECX, xcr0, leaf7EBX), avx512From(maxLeaf, leaf1ECX, xcr0, leaf7EBX)
}

// avx2From decides from raw registers whether YMM code may run: the CPU
// has AVX and AVX2 (CPUID.1:ECX bit 28, CPUID.7.0:EBX bit 5), the OS has
// enabled XSAVE (CPUID.1:ECX bit 27) and saves XMM and YMM state (XCR0
// bits 1 and 2).
func avx2From(maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32) bool {
	const osxsave, avx = 1 << 27, 1 << 28
	return maxLeaf >= 7 && leaf1ECX&(osxsave|avx) == osxsave|avx &&
		xcr0&6 == 6 && leaf7EBX&(1<<5) != 0
}

// avx512From decides likewise whether ZMM code may run: the CPU has
// AVX512F (CPUID.7.0:EBX bit 16), the OS has enabled XSAVE and saves XMM,
// YMM, opmask and both halves of ZMM state (XCR0 bits 1, 2, 5, 6 and 7).
func avx512From(maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32) bool {
	const osxsave = 1 << 27
	return maxLeaf >= 7 && leaf1ECX&osxsave != 0 && xcr0&0xe6 == 0xe6 && leaf7EBX&(1<<16) != 0
}

// Kernel names the probe's tier — "avx512", "avx2", "sse2", or off amd64
// "portable": rates from two hosts compare only next to it. The engine's
// walk runs addPackedTo's loop of the widest tier up to AVX2, for every
// product, and so does every other arc the module writes (Chain.ArcsFrom
// walks the same cursor). "avx512" adds addNarrowTo, which the walk runs over an innermost factor of at most
// 2¹⁶ vertices (SourceOf), and addPacked, with which the sinks widen packed
// blocks.
func Kernel() string {
	switch {
	case hasAVX512:
		return "avx512"
	case hasAVX2:
		return "avx2"
	}
	return "sse2"
}
