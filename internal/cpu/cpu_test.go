package cpu

import "testing"

func TestAVX2From(t *testing.T) {
	const (
		osxsave, avx = 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2         = 1 << 5           // CPUID.7.0:EBX
		xmm, ymm     = 1 << 1, 1 << 2   // XCR0
	)
	for _, c := range []struct {
		name                              string
		maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32
		want                              bool
	}{
		{"all set", 7, osxsave | avx, xmm | ymm, avx2, true},
		{"all set among other bits", 0x20, ^uint32(0), 0xe7, ^uint32(0), true},
		{"AVX2 bit but OSXSAVE clear", 7, avx, xmm | ymm, avx2, false},
		{"XCR0 without YMM state", 7, osxsave | avx, xmm, avx2, false},
		{"XCR0 without XMM state", 7, osxsave | avx, ymm, avx2, false},
		{"max leaf below 7", 6, osxsave | avx, xmm | ymm, avx2, false},
		{"AVX without AVX2", 7, osxsave | avx, xmm | ymm, 0, false},
		{"AVX2 without AVX", 7, osxsave, xmm | ymm, avx2, false},
		{"nothing", 0, 0, 0, 0, false},
	} {
		if got := avx2From(c.maxLeaf, c.leaf1ECX, c.xcr0, c.leaf7EBX); got != c.want {
			t.Errorf("%s: avx2From(%d, %#x, %#x, %#x) = %v, want %v", c.name, c.maxLeaf, c.leaf1ECX, c.xcr0, c.leaf7EBX, got, c.want)
		}
	}
}

func TestAVX512From(t *testing.T) {
	const (
		osxsave, avx        = 1 << 27, 1 << 28 // CPUID.1:ECX
		avx2, avx512f       = 1 << 5, 1 << 16  // CPUID.7.0:EBX
		xmm, ymm            = 1 << 1, 1 << 2   // XCR0
		opmask, zmmHi, hi16 = 1 << 5, 1 << 6, 1 << 7
		zmmState            = xmm | ymm | opmask | zmmHi | hi16
		leaf1, leaf7        = osxsave | avx, avx2 | avx512f
	)
	for _, c := range []struct {
		name                              string
		maxLeaf, leaf1ECX, xcr0, leaf7EBX uint32
		want                              bool
	}{
		{"all set", 7, leaf1, zmmState, leaf7, true},
		{"all set among other bits", 0x20, ^uint32(0), 0x2ff, ^uint32(0), true},
		{"AVX512F without OSXSAVE", 7, avx, zmmState, leaf7, false},
		{"XCR0 without opmask state", 7, leaf1, zmmState &^ opmask, leaf7, false},
		{"XCR0 without the upper ZMM halves", 7, leaf1, zmmState &^ zmmHi, leaf7, false},
		{"XCR0 without ZMM16-31", 7, leaf1, zmmState &^ hi16, leaf7, false},
		{"XCR0 with YMM state only", 7, leaf1, xmm | ymm, leaf7, false},
		{"max leaf below 7", 6, leaf1, zmmState, leaf7, false},
		{"AVX2 without AVX512F", 7, leaf1, zmmState, avx2, false},
		{"nothing", 0, 0, 0, 0, false},
	} {
		if got := avx512From(c.maxLeaf, c.leaf1ECX, c.xcr0, c.leaf7EBX); got != c.want {
			t.Errorf("%s: avx512From(%d, %#x, %#x, %#x) = %v, want %v", c.name, c.maxLeaf, c.leaf1ECX, c.xcr0, c.leaf7EBX, got, c.want)
		}
	}
}
