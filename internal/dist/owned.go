package dist

import (
	"cmp"
	"math/bits"
	"runtime/pprof"
	"slices"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// GenerateOwned is the paper's Sec. III optimization — "If A and B were
// sorted and placed in a compressed sparse row structure, it would be
// possible for a processor to efficiently generate only the edges it must
// store" — at the contiguous source-block storage map: the engine's
// owner-side path under BlockOwner, into memory. Nothing is routed.
func GenerateOwned(a, b *graph.Graph, r int) (*Result, error) {
	ch, err := core.NewChain(a, b)
	if err != nil {
		return nil, err
	}
	return generateChain(ch, r, BlockOwner{NC: ch.NumVertices()}, false)
}

// ownedRows is one rank's pick of the innermost factor's CSR rows for one
// source base s0: the arcs of every row u with owner(s0+u) == rank, whole
// and in order, in one contiguous slice. Within a sweep of core.TailCursor
// every source is s0+e.U, and consecutive sweeps share s0 (head arcs and
// outer tail arcs are CSR-ordered: about a mean degree of them), so the
// owner is asked once per non-empty row per change of s0 and every sweep
// with that s0 expands arcs[i:j] like any other run — the cost of placing
// does not grow with the rank count the way a per-row test in the walk
// would (R row visits for every row produced).
type ownedRows struct {
	owner func(u int64) int
	rank  int
	batch int // arcs per emitted block

	g       *graph.Graph // innermost factor of the pick
	s0      int64        // its source base
	inner   []graph.Edge // g.ArcSlice()
	rowOff  []int64      // g.RowOffsets()
	nz      []int64      // g's non-empty rows
	mine    []uint64     // the owner's answer for each of nz at s0, a bit a row
	arcs    []graph.Edge // the pick: inner itself when every row is owned, else a prefix of buf
	buf     []graph.Edge // grown to len(inner) by the first pick over a factor that large
	scratch []graph.Edge // the emitted block, reused

	rows, copied int64 // Stats.OwnerRowsTested, Stats.ArcsCompacted
}

// step is the walk's step under a source owner (runAttempt's expandTiles):
// it advances cur over one sweep — at most rem arcs of t's stream, which is
// what it reports — and hands emit the arcs of it this rank owns, expanded,
// in blocks of ≤ batch: ExpandNext's loop over the pick. A sweep the rank
// owns nothing of costs the odometer step.
func (o *ownedRows) step(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64, emit func(tile int, block []graph.Edge) bool) (int64, bool) {
	lo, hi, uPre, vPre := cur.NextSweep(rem)
	if lo == hi {
		return 0, true
	}
	s0 := uBase + uPre
	if g := t.Tail[len(t.Tail)-1]; g != o.g || s0 != o.s0 {
		o.pick(g, s0)
	}
	// Owned rows are whole and in order, so a sweep cut short (by a tile's
	// Skip or Take: at most its first and its last) maps into the pick by row.
	run := o.arcs
	if hi-lo < len(o.inner) {
		run = run[o.index(lo):o.index(hi)]
	}
	for len(run) > 0 {
		n := min(len(run), o.batch)
		pprof.SetGoroutineLabels(expandLabels)
		block := core.ExpandRun(o.scratch, run[:n], s0, vBase+vPre)
		o.scratch, run = block[:0], run[n:]
		if !emit(t.ID, block) {
			return 0, false
		}
	}
	return int64(hi - lo), true
}

// pick asks the owner about every non-empty row of g at source base s0, in
// two passes: first the answers, a bit a row, then one copy per set bit. Under
// a map that mixes its bits the answer is a coin flip per row, and kept as
// data it costs a SETcc where a branch on it mispredicts every other row.
// Nothing is copied when every row is owned — the pick is then inner itself:
// the one rank of R = 1, or a BlockOwner block that covers the sweep.
func (o *ownedRows) pick(g *graph.Graph, s0 int64) {
	pprof.SetGoroutineLabels(filterLabels)
	if g != o.g { // list the factor's non-empty rows once
		o.g, o.inner, o.rowOff = g, g.ArcSlice(), g.RowOffsets()
		o.nz = slices.Grow(o.nz[:0], len(o.rowOff))
		for u := 0; u+1 < len(o.rowOff); u++ {
			if o.rowOff[u] != o.rowOff[u+1] {
				o.nz = append(o.nz, int64(u))
			}
		}
		words := (len(o.nz) + 63) / 64
		o.mine = slices.Grow(o.mine[:0], words)[:words]
		o.buf = slices.Grow(o.buf[:0], len(o.inner))
	}
	o.s0 = s0
	o.rows += int64(len(o.nz))
	owned := 0
	for w := range o.mine {
		var m uint64
		for i, u := range o.nz[w*64 : min(len(o.nz), w*64+64)] {
			var bit uint64
			if o.owner(s0+u) == o.rank {
				bit = 1
			}
			m |= bit << i
		}
		o.mine[w] = m
		owned += bits.OnesCount64(m)
	}
	if o.arcs = o.inner; owned == len(o.nz) {
		return
	}
	buf := o.buf[:0]
	for w, m := range o.mine {
		for ; m != 0; m &= m - 1 {
			u := o.nz[w*64+bits.TrailingZeros64(m)]
			buf = append(buf, o.inner[o.rowOff[u]:o.rowOff[u+1]]...)
		}
	}
	o.arcs = buf
	o.copied += int64(len(buf))
}

// index maps position pos of inner to the pick: the owned arcs before it.
func (o *ownedRows) index(pos int) int {
	if pos == len(o.inner) {
		return len(o.arcs)
	}
	u := o.inner[pos].U
	i, owned := slices.BinarySearchFunc(o.arcs, u, func(e graph.Edge, u int64) int { return cmp.Compare(e.U, u) })
	if owned { // i is the row's first arc in the pick
		i += pos - int(o.rowOff[u])
	}
	return i
}
