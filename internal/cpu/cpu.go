// Package cpu is the one CPUID/XCR0 probe the assembly bodies of core and
// gen are picked by. Each package keeps its own copy of the answers, so its
// tests can force a body.
package cpu

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
