package gen

import (
	"math/rand"
	"testing"
)

// eachTier calls f once per R-MAT body, by the name core.Kernel() gives
// it, with the dispatch forced to that body for the call and the probe's
// answer restored after: the scalar body ("portable") on every host, and
// where the probe found AVX-512, rmatBlock ("avx512"). A body this host
// cannot run goes to skip with the feature it lacks.
func eachTier(f func(name string), skip func(name, missing string)) {
	avx512 := hasAVX512
	defer func() { hasAVX512 = avx512 }()
	hasAVX512 = false
	f("portable")
	if !avx512 {
		skip("avx512", "CPUID.7.0:EBX AVX512F, or OS-enabled opmask and ZMM state (OSXSAVE, XCR0[7:5])")
		return
	}
	hasAVX512 = true
	f("avx512")
}

// blockByScalar is rmatBlock written the plain way: stream.advance, then
// the scalar body's decode of each output into its three mask bits.
func blockByScalar(s *stream, tA, tAB, tABC uint64, b *masks) {
	s.advance()
	*b = masks{}
	for j, x := range s {
		r := x &^ (1 << 63)
		w, bit := j/64, uint64(1)<<(j%64)
		if r >= tAB {
			b.row[w] |= bit
		}
		if (r >= tA) != (r >= tAB) != (r >= tABC) {
			b.col[w] |= bit
		}
		if r >= retry {
			b.redraw[w] |= bit
		}
	}
}

// TestRMATBlockMatchesScalar holds rmatBlock to blockByScalar: the buffer
// it makes and every bit of the masks it writes (the ones past streamLen
// 0), over random buffers and planted ones, for threshold triples that
// include 0, 1, retry−1, retry and 2⁶³ — the threshold of a probability
// no output reaches, which a signed compare would take for the least of
// all. The planted buffers hold, in every lane of every chunk, each
// threshold t as t−1, t and t+1, retry−1 and retry, 0 and 2⁶³−1, with the
// top bit clear and set.
func TestRMATBlockMatchesScalar(t *testing.T) {
	if !hasAVX512 {
		t.Skip("host lacks CPUID.7.0:EBX AVX512F, or OS-enabled opmask and ZMM state (OSXSAVE, XCR0[7:5])")
	}
	const top = 1 << 63
	thresholds := [][3]uint64{
		{threshold(0.57), threshold(0.76), threshold(0.95)},
		{0, 0, 0},
		{0, 1, retry - 1},
		{1, retry - 1, retry},
		{retry - 1, retry, top},
		{retry, top, top},
		{top, top, top},
		{0, retry, top},
		{top, 1, 0}, // out of order: each compare stands alone
	}
	rng := rand.New(rand.NewSource(46))
	var buffers []stream
	for i := 0; i < 8; i++ {
		var s stream
		for j := range s {
			s[j] = rng.Uint64()
		}
		buffers = append(buffers, s)
	}
	for _, ts := range thresholds {
		var vals []uint64
		for _, x := range []uint64{ts[0], ts[1], ts[2], retry, 0, top - 1} {
			for _, r := range []uint64{x - 1, x, x + 1} {
				vals = append(vals, r&^top, r|top)
			}
		}
		// Over the eight shifts every value lands in every lane of a
		// chunk, the two partial chunks' included.
		for shift := 0; shift < 8; shift++ {
			var y stream
			for j := range y {
				y[j] = vals[(j+shift)%len(vals)]
			}
			buffers = append(buffers, before(y))
		}
	}
	for _, ts := range thresholds {
		for n, s := range buffers {
			got, want := s, s
			var gb, wb masks
			for i := range gb.row { // stale words the kernel must overwrite
				gb.row[i], gb.col[i], gb.redraw[i] = ^uint64(0), ^uint64(0), ^uint64(0)
			}
			rmatBlock(&got, ts[0], ts[1], ts[2], &gb)
			blockByScalar(&want, ts[0], ts[1], ts[2], &wb)
			if got != want {
				t.Fatalf("thresholds %#x, buffer %d: rmatBlock made another buffer than advance", ts, n)
			}
			if gb != wb {
				t.Fatalf("thresholds %#x, buffer %d: masks\n%#x\nwant\n%#x", ts, n, gb, wb)
			}
		}
	}
}
