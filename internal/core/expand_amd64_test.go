package core

import "testing"

// eachTier calls f once per body, by its Kernel() name, with the dispatch
// forced to that body for the call and the probe's answers restored after:
// the SSE2 floor on every host — also on one that would never run it —
// addPackedTo's 256-bit loop where the probe found AVX2,
// and where it found AVX-512 the narrow source (SourceOf, addNarrowTo) and
// addPacked, beside the probed 256-bit loops. A cursor built inside f reads
// the layout of f's tier. A body this host cannot run goes to skip with the
// feature it lacks.
func eachTier(f func(name string), skip func(name, missing string)) {
	avx2, avx512 := hasAVX2, hasAVX512
	defer func() { hasAVX2, hasAVX512 = avx2, avx512 }()
	hasAVX2, hasAVX512 = false, false
	f("sse2")
	if avx2 {
		hasAVX2 = true
		f("avx2")
	} else {
		skip("avx2", "CPUID.7.0:EBX AVX2, or OS-enabled YMM state (OSXSAVE, XCR0[2:1])")
	}
	if !avx512 {
		skip("avx512", "CPUID.7.0:EBX AVX512F, or OS-enabled opmask and ZMM state (OSXSAVE, XCR0[7:5])")
		return
	}
	hasAVX2, hasAVX512 = avx2, true
	f("avx512")
}

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
	// Kernel() names the probe's answer, and each tier eachTier forces.
	want := "sse2"
	if hasAVX512 {
		want = "avx512"
	} else if hasAVX2 {
		want = "avx2"
	}
	if got := Kernel(); got != want {
		t.Errorf("Kernel() = %q with hasAVX2 = %v, hasAVX512 = %v", got, hasAVX2, hasAVX512)
	}
	eachTier(func(tier string) {
		if got := Kernel(); got != tier {
			t.Errorf("Kernel() = %q in tier %s", got, tier)
		}
	}, func(string, string) {})
}
