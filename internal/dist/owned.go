package dist

import (
	"context"
	"math"
	"runtime/pprof"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// GenerateOwned is the paper's Sec. III optimization — "If A and B were
// sorted and placed in a compressed sparse row structure, it would be
// possible for a processor to efficiently generate only the edges it must
// store" — at the contiguous source-block storage map: the engine's
// owner-side path under BlockOwner, into memory.
func GenerateOwned(a, b *graph.Graph, r int) (*Result, error) {
	ch, err := core.NewChain(a, b)
	if err != nil {
		return nil, err
	}
	return GenerateChain(ch, r, BlockOwner{NC: ch.NumVertices()}, false)
}

// ownedRows is one rank's pick of the innermost factor's CSR rows for one
// source base s0: the arcs of every row u with owner(s0+u) == rank, whole
// and in order, in one contiguous slice — restricted, where the innermost
// factor is the one a tile takes a part of (a one-factor tail), to the
// tile's arcs [lo, hi) of it. Within a sweep of core.TailCursor every source
// is s0+e.U, and consecutive sweeps share s0 (head arcs and outer tail arcs
// are CSR-ordered: about a mean degree of them), so a pick is made once per
// change of s0 and every sweep with that s0 expands arcs[i:j] like any
// other run.
//
// There is one pick per owner (placing). Under OwnerBySource the map adds
// over the innermost digit (store.SourceMap): s0 is a multiple of n_L, so
// owner(s0+u) = (owner(s0) + owner(u)) mod R for every row u. The rows fall
// into R classes by owner(u), partitioned once per attempt (newPlacing),
// and the pick at s0 is class (rank − owner(s0)) mod R — one owner call, no
// copy — within the bounds the tile's window gives each class (window).
// Under a BlockOwner the rank owns one block of sources, so its rows at s0
// are one range of the factor's and the pick is the subslice of the
// factor's arcs the row offsets and the window bound it by.
//
// The pick holds the factor as the walk's cursor reads it, a core.Source:
// its graph.NarrowArcs, 4 bytes an arc, or its graph.PackedArcs, 8, as
// core.SourceOf picks per factor.
type ownedRows struct {
	p          *placing
	rank       int
	batch      int   // arcs per emitted block
	first, end int64 // under a BlockOwner, the sources the rank owns: [first, end)

	lo, hi int         // the tile's window of the factor's arcs
	cut    []int       // under OwnerBySource, class c's arcs in the window: [cut[c], cut[p.r+c]) of p.arcs
	s0     int64       // the pick's source base; -1 until the window's first pick
	class  int32       // the class the pick is, under OwnerBySource
	at     int         // the pick's first arc in the window, under a BlockOwner
	arcs   core.Source // the pick
	i, j   int         // the current sweep's owned arcs in the pick not yet expanded
	u0, v0 int64       // the current sweep's block base
	base   uint64      // its arcs' offset from that base, u | v<<32
	drop   int64       // owned arcs of the tile still to drop unexpanded: the rank's stored prefix

	rows int64 // Stats.OwnerRowsTested: the picks made
}

// sweep is the walk's step under an owner (runAttempt's walk): it advances
// cur over one sweep — at most rem arcs of t's stream, which is what it
// reports — and makes the arcs of it this rank owns, [i, j) of the pick,
// what walk.owned expands: each plus base, in blocks based at (u0, v0), the
// head arc's offset plus cur.High, as the cursor's own blocks are. A sweep
// the rank owns nothing of costs the odometer step. The first drop owned
// arcs of the tile, which the rank's sink already stored, leave the sweep
// unexpanded. cur is windowed as the pick is.
func (o *ownedRows) sweep(cur *core.TailCursor, uBase, vBase, rem int64) int64 {
	uHi, vHi := cur.High()
	lo, hi, uPre, vPre := cur.NextSweep(rem)
	if lo == hi {
		o.i, o.j = 0, 0
		return 0
	}
	if s0 := uBase + uPre; s0 != o.s0 {
		o.pick(s0)
	}
	// Owned rows are whole and in order, so a sweep cut short (by a tile's
	// Skip or Take: at most its first and its last) maps into the pick by row.
	o.i, o.j = 0, o.arcs.Len()
	o.u0, o.v0, o.base = uBase+uHi, vBase+vHi, uint64(uPre-uHi)|uint64(vPre-vHi)<<32
	if hi-lo < o.hi-o.lo {
		o.i, o.j = o.index(lo), o.index(hi)
	}
	d := min(o.drop, int64(o.j-o.i))
	o.i += int(d)
	o.drop -= d
	return int64(hi - lo)
}

// window makes arcs [lo, hi) of the plan's first tail factor the tile's,
// as the walk's cursor is windowed: the pick's bounds when that factor is
// the innermost, the whole factor otherwise. A new window costs one scan of
// the rows under OwnerBySource, for every class's bounds in it.
func (o *ownedRows) window(lo, hi int) {
	p := o.p
	if !p.windowed {
		lo, hi = 0, p.inner.Len()
	}
	if lo == o.lo && hi == o.hi {
		return
	}
	o.lo, o.hi, o.s0 = lo, hi, -1
	if p.per > 0 {
		return
	}
	if o.cut == nil {
		o.cut = make([]int, 2*p.r)
	}
	copy(o.cut, p.at[:p.r])
	copy(o.cut[p.r:], p.at[:p.r])
	for u, c := range p.class {
		a, b := int(p.off[u]), int(p.off[u+1])
		if a >= hi {
			break
		}
		o.cut[c] += min(max(lo, a), b) - a
		o.cut[p.r+int(c)] += min(hi, b) - a
	}
}

// pick makes the rank's pick at source base s0: the class that adds to
// owner(s0) to make the rank, or the rows of the rank's block, within the
// window.
func (o *ownedRows) pick(s0 int64) {
	o.s0 = s0
	o.rows++
	p := o.p
	if p.per == 0 {
		c := o.rank - p.owner(s0)
		if c < 0 {
			c += p.r
		}
		o.class, o.arcs = int32(c), p.arcs.Slice(o.cut[c], o.cut[p.r+c])
		return
	}
	n := int64(len(p.off) - 1)
	lo, hi := min(max(o.first-s0, 0), n), min(max(o.end-s0, 0), n)
	a, b := min(max(int(p.off[lo]), o.lo), o.hi), min(max(int(p.off[hi]), o.lo), o.hi)
	o.at, o.arcs = a-o.lo, p.inner.Slice(a, b)
}

// index maps position pos of the window to the pick: the owned arcs
// before it. It reads the rows' offsets and which of them the pick holds,
// not the pick.
func (o *ownedRows) index(pos int) int {
	p := o.p
	if p.per > 0 {
		return min(max(pos-o.at, 0), o.arcs.Len())
	}
	end, n := o.lo+pos, p.at[o.class]-o.cut[o.class]
	for u, c := range p.class {
		lo := int(p.off[u])
		if lo >= end {
			break
		}
		if c == o.class {
			n += min(int(p.off[u+1]), end) - lo
		}
	}
	return n
}

// placing is one attempt's owner as its ranks' picks use it: the source
// form, bound once, the plan's innermost factor, and either OwnerBySource's
// class partition of that factor — made once per attempt, before the ranks
// start, then shared read-only by every rank of the process — or a
// BlockOwner's block size.
type placing struct {
	owner    func(u int64) int
	r        int
	per      int64       // a BlockOwner's block of sources; 0 under OwnerBySource
	windowed bool        // the innermost factor is the one tiles take parts of
	off      []int64     // the innermost factor's row offsets
	inner    core.Source // its arcs, as the walk reads them

	// Under OwnerBySource: class[u] is owner(u) for every row u, and the
	// rows are partitioned by it into R classes: class c holds the arcs of
	// every row u with owner(u) == c, whole and in CSR order, at
	// [at[c], at[c+1]) of arcs.
	class  []int32
	at     []int
	arcs   core.Source
	copied int64 // arcs copied into the partition: Stats.ArcsCompacted
}

// newPlacing returns the attempt's placing under owner, OwnerBySource or a
// BlockOwner (sourceForm), whose source form at r ranks is bySource, for a
// plan whose tail is tail. Under OwnerBySource it tabulates the owner over
// the innermost factor's rows and partitions its arcs in their layout, one
// copy per row, under phase=filter. A factor whose rows all fall in one
// class is its own partition.
func newPlacing(owner Owner, bySource func(u int64) int, r int, tail []*graph.Graph) *placing {
	g := tail[len(tail)-1]
	p := &placing{owner: bySource, r: r, windowed: len(tail) == 1, off: g.RowOffsets(), inner: core.SourceOf(g)}
	if b, ok := owner.(BlockOwner); ok {
		p.per = b.per(r)
		return p
	}
	pprof.Do(context.Background(), pprof.Labels("phase", "filter"), func(context.Context) {
		p.class, p.at = make([]int32, len(p.off)-1), make([]int, r+1)
		for u := range p.class {
			c := bySource(int64(u))
			p.class[u] = int32(c)
			p.at[c+1] += int(p.off[u+1] - p.off[u])
		}
		whole := false
		for c := range r {
			p.at[c+1] += p.at[c]
			whole = whole || p.at[c+1]-p.at[c] == p.inner.Len()
		}
		if p.arcs = p.inner; !whole {
			p.arcs = p.inner.Grouped(p.off, p.class, p.at)
			p.copied = int64(p.inner.Len())
		}
	})
	return p
}

// rows returns rank's pick, to emit blocks of at most batch arcs.
func (p *placing) rows(rank, batch int) *ownedRows {
	o := &ownedRows{p: p, rank: rank, batch: batch, lo: -1, hi: -1, s0: -1}
	if p.per > 0 {
		o.first, o.end = int64(rank)*p.per, int64(rank+1)*p.per
		if rank == p.r-1 {
			o.end = math.MaxInt64
		}
	}
	return o
}
