package dist

import (
	"math"
	"runtime/pprof"
	"sync"

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
// and in order, in one contiguous slice. Within a
// sweep of core.TailCursor every source is s0+e.U, and consecutive sweeps
// share s0 (head arcs and outer tail arcs are CSR-ordered: about a mean
// degree of them), so a pick is made once per change of s0 and every sweep
// with that s0 expands arcs[i:j] like any other run.
//
// There is one pick per owner (placing). Under OwnerBySource the map adds
// over the innermost digit (store.SourceMap): s0 is a multiple of n_L, so
// owner(s0+u) = (owner(s0) + owner(u)) mod R for every row u. The rows fall
// into R classes by owner(u), partitioned once per attempt (placing.of),
// and the pick at s0 is class (rank − owner(s0)) mod R — one owner call, no
// copy. Under a BlockOwner the rank owns one block of sources, so its rows
// at s0 are one range of the factor's and the pick is the subslice of the
// factor's arcs the row offsets bound it by.
//
// The pick holds the factor as the walk's cursor reads it, a core.Source:
// its graph.NarrowArcs, 4 bytes an arc, or its graph.PackedArcs, 8, as
// core.SourceOf picks per factor.
type ownedRows struct {
	p          *placing
	rank       int
	batch      int   // arcs per emitted block
	first, end int64 // under a BlockOwner, the sources the rank owns: [first, end)

	g      *graph.Graph // innermost factor of the pick
	s0     int64        // its source base; -1 until the first pick
	off    []int64      // g's row offsets
	inner  core.Source  // g's arcs
	part   *classPart   // g's classes under OwnerBySource; nil under a BlockOwner
	class  int32        // the class the pick is, under OwnerBySource
	at     int          // the pick's first arc in inner, under a BlockOwner
	arcs   core.Source  // the pick
	i, j   int          // the current sweep's owned arcs in the pick not yet expanded
	u0, v0 int64        // the current sweep's block base
	base   uint64       // its arcs' offset from that base, u | v<<32

	rows int64 // Stats.OwnerRowsTested: the picks made
}

// sweep is the walk's step under an owner (runAttempt's walk): it advances
// cur over one sweep — at most rem arcs of t's stream, which is what it
// reports — and makes the arcs of it this rank owns, [i, j) of the pick,
// what walk.owned expands: each plus base, in blocks based at (u0, v0), the
// head arc's offset plus cur.High, as the cursor's own blocks are. A sweep
// the rank owns nothing of costs the odometer step. cur's innermost factor
// is the one the walk last loaded.
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
	if hi-lo < o.inner.Len() {
		o.i, o.j = o.index(lo), o.index(hi)
	}
	return int64(hi - lo)
}

// load makes g the factor of the pick, with its classes under
// OwnerBySource.
func (o *ownedRows) load(g *graph.Graph) {
	o.g, o.s0, o.off, o.inner, o.arcs = g, -1, g.RowOffsets(), core.SourceOf(g), core.Source{}
	if o.p.parts != nil {
		o.part = o.p.of(g, o.inner)
	}
}

// pick makes the rank's pick at source base s0: the class that adds to
// owner(s0) to make the rank, or the rows of the rank's block.
func (o *ownedRows) pick(s0 int64) {
	o.s0 = s0
	o.rows++
	if p := o.part; p != nil {
		c := o.rank - o.p.owner(s0)
		if c < 0 {
			c += o.p.r
		}
		o.class, o.arcs = int32(c), p.arcs.Slice(p.at[c], p.at[c+1])
		return
	}
	n := int64(len(o.off) - 1)
	lo, hi := min(max(o.first-s0, 0), n), min(max(o.end-s0, 0), n)
	o.at, o.arcs = int(o.off[lo]), o.inner.Slice(int(o.off[lo]), int(o.off[hi]))
}

// index maps position pos of the factor's arcs to the pick: the owned arcs
// before it. It reads the rows' offsets and which of them the pick holds,
// not the pick.
func (o *ownedRows) index(pos int) int {
	if o.part == nil {
		return min(max(pos-o.at, 0), o.arcs.Len())
	}
	n := 0
	for u, c := range o.part.low {
		lo := int(o.off[u])
		if lo >= pos {
			break
		}
		if c == o.class {
			n += min(int(o.off[u+1]), pos) - lo
		}
	}
	return n
}

// placing is one attempt's owner as its ranks' picks use it: the source
// form, bound once, and either OwnerBySource's class partitions of the
// innermost factors the ranks meet — made by the first
// rank to load a factor, then shared read-only by every rank of the
// process — or a BlockOwner's block size.
type placing struct {
	owner func(u int64) int
	r     int
	per   int64 // a BlockOwner's block of sources; 0 under OwnerBySource

	mu     sync.Mutex
	parts  map[*graph.Graph]*classPart // nil under a BlockOwner
	low    []int32                     // the last factor's owner table, which the next of its size shares
	copied int64                       // arcs copied into the partitions: Stats.ArcsCompacted
}

// classPart is one factor under OwnerBySource: low[x] is owner(x) for every
// row x, and the rows are partitioned by it into R classes: class c holds
// the arcs of every row u with owner(u) == c, whole and in CSR order, at
// [at[c], at[c+1]) of arcs.
type classPart struct {
	low  []int32
	at   []int
	arcs core.Source
}

// newPlacing returns the attempt's placing under owner, OwnerBySource or a
// BlockOwner (sourceForm), whose source form at r ranks is bySource.
func newPlacing(owner Owner, bySource func(u int64) int, r int) *placing {
	p := &placing{owner: bySource, r: r}
	if b, ok := owner.(BlockOwner); ok {
		p.per = b.per(r)
	} else {
		p.parts = make(map[*graph.Graph]*classPart)
	}
	return p
}

// rows returns rank's pick, to emit blocks of at most batch arcs.
func (p *placing) rows(rank, batch int) *ownedRows {
	o := &ownedRows{p: p, rank: rank, batch: batch, s0: -1}
	if p.per > 0 {
		o.first, o.end = int64(rank)*p.per, int64(rank+1)*p.per
		if rank == p.r-1 {
			o.end = math.MaxInt64
		}
	}
	return o
}

// of returns g's classes (inner is g's arcs as the walk reads them), on the
// first call tabulating the owner over g's rows — once for all factors of
// one size, as a 2D plan's parts are — and partitioning inner in its layout:
// one copy per row, under phase=filter. A factor whose rows all fall in one
// class is its own partition.
func (p *placing) of(g *graph.Graph, inner core.Source) *classPart {
	p.mu.Lock()
	defer p.mu.Unlock()
	if c := p.parts[g]; c != nil {
		return c
	}
	pprof.SetGoroutineLabels(filterLabels)
	defer pprof.SetGoroutineLabels(expandLabels)
	off := g.RowOffsets()
	if n := len(off) - 1; len(p.low) != n {
		p.low = make([]int32, n)
		for x := range p.low {
			p.low[x] = int32(p.owner(int64(x)))
		}
	}
	c := &classPart{low: p.low, at: make([]int, p.r+1)}
	p.parts[g] = c
	for u, k := range c.low {
		c.at[k+1] += int(off[u+1] - off[u])
	}
	whole := false
	for k := range p.r {
		c.at[k+1] += c.at[k]
		whole = whole || c.at[k+1]-c.at[k] == inner.Len()
	}
	if whole {
		c.arcs = inner
		return c
	}
	c.arcs = inner.Grouped(off, c.low, c.at)
	p.copied += int64(inner.Len())
	return c
}
