package dist

import (
	"cmp"
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

// pick asks the owner about every non-empty row of g at source base s0.
// Nothing is copied while every row so far is owned — the pick is then a
// prefix of inner, and all of it for the one rank of R = 1 or a BlockOwner
// block that covers the sweep.
func (o *ownedRows) pick(g *graph.Graph, s0 int64) {
	pprof.SetGoroutineLabels(filterLabels)
	o.g, o.s0, o.inner, o.rowOff = g, s0, g.ArcSlice(), g.RowOffsets()
	o.buf = slices.Grow(o.buf[:0], len(o.inner))
	buf, all := o.buf, true
	for u := 0; u+1 < len(o.rowOff); u++ {
		lo, hi := o.rowOff[u], o.rowOff[u+1]
		if lo == hi {
			continue
		}
		o.rows++
		switch mine := o.owner(s0+int64(u)) == o.rank; {
		case mine && !all:
			buf = append(buf, o.inner[lo:hi]...)
		case !mine && all:
			all = false
			buf = append(buf, o.inner[:lo]...)
		}
	}
	if o.arcs = o.inner; !all {
		o.arcs = buf
		o.copied += int64(len(buf))
	}
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
