package core

import "testing"

// eachTier calls f once per body of addEdges, by its Kernel() name, with
// the dispatch forced to that body for the call and the probe's answer
// restored after: the SSE2 floor on every host — also on one that would
// never run it — and the 256-bit loop where the probe found AVX2. A body
// this host cannot run goes to skip with the feature it lacks.
func eachTier(f func(name string), skip func(name, missing string)) {
	probed := hasAVX2
	defer func() { hasAVX2 = probed }()
	hasAVX2 = false
	f("sse2")
	if !probed {
		skip("avx2", "CPUID.7.0:EBX AVX2, or OS-enabled YMM state (OSXSAVE, XCR0[2:1])")
		return
	}
	hasAVX2 = true
	f("avx2")
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
	if got, want := Kernel(), map[bool]string{false: "sse2", true: "avx2"}[hasAVX2]; got != want {
		t.Errorf("Kernel() = %q with hasAVX2 = %v", got, hasAVX2)
	}
}
