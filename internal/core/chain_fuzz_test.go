package core

import (
	"testing"
)

// FuzzChainIndex fuzzes the mixed-radix chain index maps: dims are
// derived from raw bytes (1–9 vertices per factor, 1–6 factors), and two
// vertex seeds pick product vertices p and q. Checked properties:
// encode/decode round-trip (Join ∘ Split = id, digit ranges respected) and
// lexicographic-order preservation (p < q exactly when Split(p) precedes
// Split(q) lexicographically) — the invariant the engine's
// odometer-ordered tail expansion and the checkpoint substream identity
// both rely on.
func FuzzChainIndex(f *testing.F) {
	f.Add([]byte{2, 2}, uint64(0), uint64(3))
	f.Add([]byte{3, 4, 5}, uint64(17), uint64(42))
	f.Add([]byte{9, 1, 7, 2}, uint64(1), uint64(1))
	f.Add([]byte{1}, uint64(0), uint64(0))
	f.Add([]byte{5, 5, 5, 5, 5, 5}, uint64(1<<40), uint64(7))

	f.Fuzz(func(t *testing.T, raw []byte, pSeed, qSeed uint64) {
		k := len(raw)
		if k == 0 || k > 6 {
			t.Skip()
		}
		dims := make([]int64, k)
		for d, b := range raw {
			dims[d] = 1 + int64(b%9)
		}
		ci, err := NewChainIndex(dims)
		if err != nil {
			t.Fatalf("NewChainIndex(%v): %v", dims, err)
		}
		n := ci.NumVertices()
		p := int64(pSeed % uint64(n))
		q := int64(qSeed % uint64(n))

		// Round trip and digit-range invariants.
		coords := ci.Split(p)
		if len(coords) != k {
			t.Fatalf("Split(%d) has %d digits, want %d", p, len(coords), k)
		}
		for d, c := range coords {
			if c < 0 || c >= dims[d] {
				t.Fatalf("Split(%d) digit %d = %d out of [0,%d)", p, d, c, dims[d])
			}
		}
		if got := ci.Join(coords); got != p {
			t.Fatalf("Join(Split(%d)) = %d (dims %v)", p, got, dims)
		}

		// Lexicographic order: the mixed-radix encoding with leftmost
		// digit outermost orders vertices exactly like their digit
		// vectors.
		qc := ci.Split(q)
		cmp := 0
		for d := 0; d < k; d++ {
			if coords[d] != qc[d] {
				if coords[d] < qc[d] {
					cmp = -1
				} else {
					cmp = 1
				}
				break
			}
		}
		switch {
		case p < q && cmp != -1:
			t.Fatalf("p=%d < q=%d but digits %v !< %v", p, q, coords, qc)
		case p > q && cmp != 1:
			t.Fatalf("p=%d > q=%d but digits %v !> %v", p, q, coords, qc)
		case p == q && cmp != 0:
			t.Fatalf("p == q == %d but digits differ: %v vs %v", p, coords, qc)
		}
	})
}
