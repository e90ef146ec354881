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

// TestKernelNamesTier checks that Kernel() names the probe's answer, and
// each tier eachTier forces.
func TestKernelNamesTier(t *testing.T) {
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
