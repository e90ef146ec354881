package core

import "kronlab/internal/graph"

// addEdges is addEdgesGo in assembly (expand_amd64.s). It reads len(src)
// arcs and writes as many, so the caller passes len(dst) ≥ len(src).
//
//go:noescape
func addEdges(dst, src []graph.Edge, u0, v0 int64)

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// hasAVX2 puts addEdges' 256-bit loop in front of its SSE2 one. It is
// probed once, here, and only tests set it afterwards: the machine picks
// the lane width, not a flag.
var hasAVX2 = probeAVX2()

func probeAVX2() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	_, leaf7EBX, _, _ := cpuid(7, 0) // junk past maxLeaf, which avx2From checks
	var xcr0 uint32
	if leaf1ECX&(1<<27) != 0 { // XGETBV faults without OSXSAVE
		xcr0 = xgetbv()
	}
	return avx2From(maxLeaf, leaf1ECX, xcr0, leaf7EBX)
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

// Kernel names the body ExpandRun runs on this machine — "avx2", "sse2",
// or off amd64 "portable": rates from two hosts compare only next to it.
func Kernel() string {
	if hasAVX2 {
		return "avx2"
	}
	return "sse2"
}
