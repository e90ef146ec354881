// Package core implements the paper's primary contribution: Kronecker
// block-index arithmetic (the α, β, γ maps of Sec. II-A, ChainIndex's
// Split and Join at k = 2), nonstochastic Kronecker product generation
// over a factor chain A₁ ⊗ … ⊗ Aₖ — streamed (Chain.Arcs, the TailCursor
// walk) or materialized (Product), the full-self-loop variant being the
// chain of the +I factors (Sec. III) — and Kronecker products of vertex
// sets and partitions (Defs. 14 and 16).
//
// All indices are 0-based (the paper is 1-based); the maps satisfy the
// same composition law γ(α(p), β(p)) = p.
package core

import (
	"fmt"

	"kronlab/internal/graph"
)

// CheckedMul returns a·b for nonnegative a, b and reports whether the
// product fits in int64. Every closed-form count in a factor chain is a
// product over factors, so a single checked multiply is the primitive
// behind all of them (chain vertex counts, arc counts, the groundtruth
// Chain* laws).
func CheckedMul(a, b int64) (int64, bool) {
	if a < 0 || b < 0 {
		return 0, false
	}
	if a == 0 || b == 0 {
		return 0, true
	}
	p := a * b
	if p/a != b {
		return 0, false
	}
	return p, true
}

// ChainIndex maps between a vertex of A₁⊗A₂⊗…⊗Aₖ and its k factor
// coordinates — the mixed-radix generalization of the two-factor maps
// α(p) = ⌊p / n_B⌋, β(p) = p mod n_B and γ(i, k) = i·n_B + k, which are
// Split and Join at k = 2. Vertex p decomposes as p = Σ_d digit[d]·stride[d]
// with stride[d] = Π_{e>d} n_e: the leftmost digit is the outermost
// factor, matching the left fold of Product.
type ChainIndex struct {
	dims    []int64 // per-factor vertex counts, leftmost outermost
	strides []int64 // strides[d] = Π_{e>d} dims[e]; strides[k-1] = 1
	n       int64   // Π dims
}

// NewChainIndex builds the index map for per-factor vertex counts dims
// (each ≥ 1). It fails if Π dims overflows int64.
func NewChainIndex(dims []int64) (ChainIndex, error) {
	if len(dims) == 0 {
		return ChainIndex{}, fmt.Errorf("core: chain index needs ≥ 1 factor")
	}
	for d, n := range dims {
		if n <= 0 {
			return ChainIndex{}, fmt.Errorf("core: chain factor %d has nonpositive vertex count %d", d, n)
		}
	}
	strides := make([]int64, len(dims))
	n := int64(1)
	for d := len(dims) - 1; d >= 0; d-- {
		strides[d] = n
		p, ok := CheckedMul(n, dims[d])
		if !ok {
			return ChainIndex{}, fmt.Errorf("core: chain vertex count overflows int64 at factor %d (%d × %d)", d, n, dims[d])
		}
		n = p
	}
	return ChainIndex{dims: append([]int64(nil), dims...), strides: strides, n: n}, nil
}

// MustChainIndex is NewChainIndex panicking on error, for tests and
// literals with known-safe dimensions.
func MustChainIndex(dims ...int64) ChainIndex {
	ci, err := NewChainIndex(dims)
	if err != nil {
		panic(err)
	}
	return ci
}

// K returns the number of factors.
func (ci ChainIndex) K() int { return len(ci.dims) }

// Dims returns the per-factor vertex counts. The slice is shared; do not
// modify.
func (ci ChainIndex) Dims() []int64 { return ci.dims }

// NumVertices returns Π n_d, checked at construction.
func (ci ChainIndex) NumVertices() int64 { return ci.n }

// Stride returns Π_{e>d} n_e, the vertex stride of digit d. For k = 2,
// Stride(0) is the classic block size n_B.
func (ci ChainIndex) Stride(d int) int64 { return ci.strides[d] }

// Split returns the k factor coordinates of product vertex p.
func (ci ChainIndex) Split(p int64) []int64 {
	return ci.SplitInto(p, make([]int64, len(ci.dims)))
}

// SplitInto is Split writing into a caller-provided slice of length k.
func (ci ChainIndex) SplitInto(p int64, out []int64) []int64 {
	if len(out) != len(ci.dims) {
		panic(fmt.Sprintf("core: SplitInto got %d-slot slice, want %d", len(out), len(ci.dims)))
	}
	for d := len(ci.dims) - 1; d >= 0; d-- {
		out[d] = p % ci.dims[d]
		p /= ci.dims[d]
	}
	return out
}

// Join inverts Split: p = Σ coords[d]·stride[d].
func (ci ChainIndex) Join(coords []int64) int64 {
	if len(coords) != len(ci.dims) {
		panic(fmt.Sprintf("core: Join got %d coords, want %d", len(coords), len(ci.dims)))
	}
	var p int64
	for d, c := range coords {
		p = p*ci.dims[d] + c
	}
	return p
}

// Chain is an ordered list of Kronecker factors A₁⊗A₂⊗…⊗Aₖ — the
// currency of the generation pipeline. The head factor A₁ keeps the
// two-factor A role (its arcs are the rank-split dimension of a Plan);
// the tail A₂⊗…⊗Aₖ generalizes B and is folded lazily during expansion,
// never materialized. A two-factor product is exactly the k = 2 case.
type Chain struct {
	factors []*graph.Graph
	index   ChainIndex
}

// NewChain validates the factors (k ≥ 1, all non-nil and nonempty) and
// precomputes the mixed-radix index map, failing if the product vertex
// count overflows int64 — so a Chain that constructs is one whose vertex
// space is addressable.
func NewChain(factors ...*graph.Graph) (*Chain, error) {
	if len(factors) == 0 {
		return nil, fmt.Errorf("core: chain needs ≥ 1 factor")
	}
	dims := make([]int64, len(factors))
	for d, g := range factors {
		if g == nil {
			return nil, fmt.Errorf("core: chain factor %d is nil", d)
		}
		dims[d] = g.NumVertices()
	}
	ci, err := NewChainIndex(dims)
	if err != nil {
		return nil, err
	}
	return &Chain{factors: append([]*graph.Graph(nil), factors...), index: ci}, nil
}

// PowerChain returns the chain A⊗A⊗…⊗A of k copies — A^{⊗k} as a chain,
// which the distributed engine streams and Product(ch.Factors()...)
// materializes.
func PowerChain(a *graph.Graph, k int) (*Chain, error) {
	if k < 1 {
		return nil, fmt.Errorf("core: PowerChain needs k ≥ 1, got %d", k)
	}
	factors := make([]*graph.Graph, k)
	for i := range factors {
		factors[i] = a
	}
	return NewChain(factors...)
}

// K returns the number of factors.
func (c *Chain) K() int { return len(c.factors) }

// Factors returns the ordered factor list. The slice is shared; do not
// modify.
func (c *Chain) Factors() []*graph.Graph { return c.factors }

// Head returns A₁, the rank-split factor.
func (c *Chain) Head() *graph.Graph { return c.factors[0] }

// Tail returns A₂⊗…⊗Aₖ as a factor list (empty for k = 1).
func (c *Chain) Tail() []*graph.Graph { return c.factors[1:] }

// Index returns the chain's mixed-radix index map.
func (c *Chain) Index() ChainIndex { return c.index }

// NumVertices returns Π n_d, verified at construction not to overflow.
func (c *Chain) NumVertices() int64 { return c.index.NumVertices() }

// NumArcs returns Π arcs_d with overflow checking.
func (c *Chain) NumArcs() (int64, error) {
	arcs := int64(1)
	for d, g := range c.factors {
		p, ok := CheckedMul(arcs, g.NumArcs())
		if !ok {
			return 0, fmt.Errorf("core: chain arc count overflows int64 at factor %d", d)
		}
		arcs = p
	}
	return arcs, nil
}

// NumEdges returns the undirected edge count and the arc count of the
// chain product without generating it: arcs and loops both multiply
// across factors, and a product arc is a loop iff every factor arc is a
// loop.
func (c *Chain) NumEdges() (edges, arcs int64, err error) {
	arcs, err = c.NumArcs()
	if err != nil {
		return 0, 0, err
	}
	loops := int64(1)
	for d, g := range c.factors {
		p, ok := CheckedMul(loops, g.NumSelfLoops())
		if !ok {
			return 0, 0, fmt.Errorf("core: chain loop count overflows int64 at factor %d", d)
		}
		loops = p
	}
	return (arcs + loops) / 2, arcs, nil
}

// WithFullSelfLoops returns the chain (A₁+I)⊗…⊗(Aₖ+I), the product of
// Cor. 1, Cor. 2 and Thm. 6 (each factor's existing loops are kept by
// the +I saturation).
func (c *Chain) WithFullSelfLoops() *Chain {
	factors := make([]*graph.Graph, len(c.factors))
	for d, g := range c.factors {
		factors[d] = g.WithFullSelfLoops()
	}
	nc, err := NewChain(factors...)
	if err != nil { // +I changes no dimensions; cannot fail
		panic(err)
	}
	return nc
}

// Arcs enumerates the arcs of the chain product in canonical order —
// factor 1 arcs outermost, factor k arcs innermost, each factor in CSR
// arc order — without materializing anything. For k = 2 this is Sec. II's
// nested loop: every arc (i,j) of A, then every arc (k,l) of B, yields
// (γ(i,k), γ(j,l)). It is the per-arc reference enumeration Product fills
// from and the blocked TailCursor path is tested against. Iteration stops
// early if yield returns false.
func (c *Chain) Arcs(yield func(u, v int64) bool) {
	var rec func(d int, u, v int64) bool
	rec = func(d int, u, v int64) bool {
		if d == len(c.factors) {
			return yield(u, v)
		}
		s := c.index.strides[d]
		ok := true
		c.factors[d].Arcs(func(i, j int64) bool {
			ok = rec(d+1, u+i*s, v+j*s)
			return ok
		})
		return ok
	}
	rec(0, 0, 0)
}

// ArcsFrom enumerates the chain's arcs in canonical order starting at
// global arc index offset, without generating the skipped prefix: the
// canonical order is the mixed-radix odometer order over the factors'
// arc lists, so the starting position is located in O(k) (TailCursor.
// SeekTo) and enumeration proceeds from there. ArcsFrom(0, yield) is
// Arcs(yield). It returns the total arc count, erring when that count
// overflows int64 or offset is outside [0, total].
func (c *Chain) ArcsFrom(offset int64, yield func(u, v int64) bool) (int64, error) {
	total, err := c.NumArcs()
	if err != nil {
		return 0, err
	}
	if offset < 0 || offset > total {
		return total, fmt.Errorf("core: arc offset %d out of range [0,%d]", offset, total)
	}
	if offset == total {
		return total, nil
	}
	// A cursor over all k factors enumerates exactly Arcs' order, with the
	// full-chain strides; its blocks carry their base at every product size.
	cur := NewTailCursor(c.factors)
	cur.SeekTo(offset)
	block := make([]uint64, 0, 1024)
	var u0, v0 int64
	for {
		block, u0, v0 = cur.ExpandNextPacked(block[:0], cap(block))
		if len(block) == 0 {
			return total, nil
		}
		for _, w := range block {
			if !yield(u0+int64(uint32(w)), v0+int64(w>>32)) {
				return total, nil
			}
		}
	}
}

// TailCursor lazily enumerates the composed arcs of a factor list
// T = A₁⊗…⊗A_m in lexicographic CSR order — an odometer over the outer
// factors' arc lists with a run of the innermost factor's CSR ArcSlice
// at each position. It is how the engine folds a chain's tail inside the
// block-expansion kernel without materializing intermediate products:
// the cursor yields tail arcs in the exact order a materialized tail's
// ArcSlice would, so the deterministic per-tile expansion order that
// checkpoints and prefix-dedup recovery key on is preserved at k > 2.
//
// ExpandNextPacked appends into a caller-owned scratch buffer, NextSweep
// hands out index windows of the innermost factor's shared ArcSlice, and the
// cursor itself allocates only at construction (where it resolves the
// innermost factor's Source for ExpandNextPacked, whose narrow or packed
// copy is the factor's, built once per graph), so expansion is
// allocation-free per arc. Over a single factor the odometer is empty
// and the cursor is a position in that factor's ArcSlice: the k = 2
// product needs no kernel of its own.
type TailCursor struct {
	arcs     [][]graph.Edge // per-factor CSR arc slices (shared; read-only), the first windowed
	first    []graph.Edge   // the first factor's whole ArcSlice, which Window re-slices
	whole    Source         // the innermost factor's whole Source
	inner    Source         // the innermost factor as ExpandNextPacked reads it: whole, or windowed at m = 1
	strides  []int64        // vertex strides within the tail space
	idx      []int          // odometer over arcs[0..m-2]
	uPre     int64          // Σ_{d<m-1} arcs[d][idx[d]].U·strides[d]
	vPre     int64          // likewise for V
	high     int            // digits d < high are those whose factors lie past the tail's lowest 2³² vertices
	uHi, vHi int64          // those digits' part of uPre and vPre: ExpandNextPacked's base
	innerPos int            // position within arcs[m-1]
	done     bool
	total    int64 // Π len(arcs[d])
	nTail    int64 // Π n_d — the composed tail vertex count
}

// NewTailCursor builds a cursor over the given factors (m ≥ 1). The
// total composed arc count must fit in int64 — guaranteed whenever the
// factors come from a validated Plan, whose tile arc counts are checked.
func NewTailCursor(tail []*graph.Graph) *TailCursor {
	if len(tail) == 0 {
		panic("core: TailCursor needs ≥ 1 factor")
	}
	tc := &TailCursor{
		arcs:    make([][]graph.Edge, len(tail)),
		whole:   SourceOf(tail[len(tail)-1]),
		strides: make([]int64, len(tail)),
		idx:     make([]int, len(tail)-1),
	}
	stride := int64(1)
	for d := len(tail) - 1; d >= 0; d-- {
		tc.arcs[d] = tail[d].ArcSlice()
		tc.strides[d] = stride
		stride *= tail[d].NumVertices()
		if stride > 1<<32 && tc.high == 0 {
			tc.high = d + 1
		}
	}
	tc.nTail, tc.first, tc.inner = stride, tc.arcs[0], tc.whole
	tc.Window(0, len(tc.first))
	return tc
}

// Window restricts the cursor to arcs [lo, hi) of the first factor's
// ArcSlice, a 2D tile's part, and rewinds it: Total, SeekTo and, over one
// factor, NextSweep's positions count within the window.
func (tc *TailCursor) Window(lo, hi int) {
	tc.arcs[0] = tc.first[lo:hi]
	if len(tc.arcs) == 1 {
		tc.inner = tc.whole.Slice(lo, hi)
	}
	tc.total = 1
	for _, a := range tc.arcs {
		tc.total *= int64(len(a))
	}
	tc.Reset()
}

// Total returns the number of composed tail arcs, Π arcs_d.
func (tc *TailCursor) Total() int64 { return tc.total }

// NumVertices returns the tail's composed vertex count, Π n_d.
func (tc *TailCursor) NumVertices() int64 { return tc.nTail }

// Reset rewinds the cursor to the first composed arc. Expansion replay
// after a recovery respawn starts here, making attempt output
// byte-identical.
func (tc *TailCursor) Reset() {
	for d := range tc.idx {
		tc.idx[d] = 0
	}
	tc.innerPos = 0
	tc.done = tc.total == 0
	tc.recomputePrefix()
}

// Seek positions the cursor at composed arc index pos in [0, Total()],
// without enumerating the skipped prefix: the composed order is mixed
// radix (outer odometer digits most significant, the innermost factor's
// arc index least), so locating pos is a constant number of divisions
// per factor — O(k), independent of pos. Seek(0) is Reset; Seek(Total())
// exhausts the cursor. This is the primitive behind resumable streams:
// a rank can start generating mid-tile at exactly the edge a cut stream
// stopped at.
func (tc *TailCursor) SeekTo(pos int64) {
	if pos < 0 || pos > tc.total {
		panic(fmt.Sprintf("core: TailCursor.SeekTo(%d) out of range [0,%d]", pos, tc.total))
	}
	if pos == tc.total {
		tc.done = true
		tc.recomputePrefix()
		return
	}
	tc.done = false
	inner := int64(len(tc.arcs[len(tc.arcs)-1]))
	tc.innerPos = int(pos % inner)
	rest := pos / inner
	for d := len(tc.idx) - 1; d >= 0; d-- {
		n := int64(len(tc.arcs[d]))
		tc.idx[d] = int(rest % n)
		rest /= n
	}
	tc.recomputePrefix()
}

func (tc *TailCursor) recomputePrefix() {
	tc.uPre, tc.vPre, tc.uHi, tc.vHi = 0, 0, 0, 0
	if tc.done {
		return
	}
	for d := range tc.idx {
		a := tc.arcs[d][tc.idx[d]]
		tc.uPre += a.U * tc.strides[d]
		tc.vPre += a.V * tc.strides[d]
		if d+1 == tc.high {
			tc.uHi, tc.vHi = tc.uPre, tc.vPre
		}
	}
}

// advance steps the outer odometer (rightmost digit fastest) after the
// innermost arc list has been exhausted.
func (tc *TailCursor) advance() {
	for d := len(tc.idx) - 1; d >= 0; d-- {
		tc.idx[d]++
		if tc.idx[d] < len(tc.arcs[d]) {
			tc.recomputePrefix()
			return
		}
		tc.idx[d] = 0
	}
	tc.done = true
}

// ExpandNext appends up to max of the packed walk's arcs to out as
// graph.Edges, each plus the caller's bases: NextSweep's windows expanded
// by ExpandBlock. Nothing in the module calls it; the benchmark harness's
// cursor rows do.
func (tc *TailCursor) ExpandNext(uBase, vBase int64, out []graph.Edge, max int) []graph.Edge {
	for len(out) < max {
		lo, hi, uPre, vPre := tc.NextSweep(int64(max - len(out)))
		if lo == hi {
			break
		}
		out = ExpandBlock(graph.Edge{U: uBase + uPre, V: vBase + vPre}, tc.arcs[len(tc.arcs)-1][lo:hi], 1, out)
	}
	return out
}

// ExpandNextPacked is the packed walk, the engine's and Chain.ArcsFrom's:
// it appends up to max tail arcs to out as graph.PackedArcs words, in the
// tail's CSR order, relative to a base (u0, v0) it returns with them; arc
// i is (u0 + uint32(w), v0 + w>>32), plus the caller's head offset. An
// empty block means the cursor is exhausted. The base is the contribution
// of the outer digits whose factors lie past the lowest 2³² vertices of
// the tail, so every word fits, and the block ends where that contribution
// changes: for a tail of at most 2³² vertices the base is (0, 0) and the
// block is max arcs but for the last. Each sweep (or the part of it max
// admits) is one ExpandSourceTo call over the innermost factor's Source,
// resolved at NewTailCursor, which must have at most 2³² vertices.
func (tc *TailCursor) ExpandNextPacked(out []uint64, max int) (block []uint64, u0, v0 int64) {
	u0, v0 = tc.uHi, tc.vHi
	for len(out) < max && tc.uHi == u0 && tc.vHi == v0 {
		lo, hi, uPre, vPre := tc.NextSweep(int64(max - len(out)))
		if lo == hi {
			break
		}
		out = ExpandSourceTo(out, tc.inner.Slice(lo, hi), uint64(uPre-u0)|uint64(vPre-v0)<<32)
	}
	return out, u0, v0
}

// High returns the base ExpandNextPacked gives the next sweep's arcs, the
// part of NextSweep's prefix that a packed word leaves out: (0, 0) for a
// tail of at most 2³² vertices.
func (tc *TailCursor) High() (u0, v0 int64) { return tc.uHi, tc.vHi }

// NextSweep is ExpandNextPacked without the writing, a sweep at a time: it
// advances the cursor over the rest of the current sweep of the innermost
// factor's arc list — at most max arcs of it — and returns the window
// [lo, hi) of that list it stepped over, with the outer prefix: the arcs
// are (uPre+e.U, vPre+e.V) for e in the innermost ArcSlice[lo:hi], plus the
// caller's bases. Concatenated, the windows are exactly ExpandNextPacked's
// stream; only a window cut by max or entered after SeekTo is less than the
// whole list. lo == hi means the cursor is exhausted (or max ≤ 0). uPre is
// constant over a sweep, so a caller that keeps only some rows of the
// innermost factor — the distributed engine's owner-side walk — picks them
// once per source base and expands every sweep from that pick.
func (tc *TailCursor) NextSweep(max int64) (lo, hi int, uPre, vPre int64) {
	if tc.done || max <= 0 {
		return 0, 0, 0, 0
	}
	n := len(tc.arcs[len(tc.arcs)-1])
	lo, hi, uPre, vPre = tc.innerPos, n, tc.uPre, tc.vPre
	if int64(hi-lo) > max {
		hi = lo + int(max)
	}
	tc.innerPos = hi
	if hi == n {
		tc.innerPos = 0
		tc.advance()
	}
	return lo, hi, uPre, vPre
}
