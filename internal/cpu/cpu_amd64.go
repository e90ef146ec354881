package cpu

func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax uint32)

// Probe reports whether this machine may run AVX2 code and AVX-512F code,
// read from CPUID and, where the OS has enabled XSAVE, XCR0.
func Probe() (avx2, avx512 bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	_, _, leaf1ECX, _ := cpuid(1, 0)
	_, leaf7EBX, _, _ := cpuid(7, 0) // junk past maxLeaf, which the From functions check
	var xcr0 uint32
	if leaf1ECX&(1<<27) != 0 { // XGETBV faults without OSXSAVE
		xcr0 = xgetbv()
	}
	return avx2From(maxLeaf, leaf1ECX, xcr0, leaf7EBX), avx512From(maxLeaf, leaf1ECX, xcr0, leaf7EBX)
}
