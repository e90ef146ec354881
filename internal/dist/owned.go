package dist

import (
	"math/bits"
	"runtime/pprof"
	"slices"
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
// and in order, in one contiguous slice. Within a sweep of core.TailCursor
// every source is s0+e.U, and consecutive sweeps share s0 (head arcs and
// outer tail arcs are CSR-ordered: about a mean degree of them), so a pick
// is made once per change of s0 and every sweep with that s0 expands
// arcs[i:j] like any other run.
//
// The pick is made one of two ways. Under OwnerBySource (classes non-nil)
// the map adds over disjoint bits (store.BySource), and the attempt
// tabulates owner(x) below B, the least power of two ≥ n_L, once per factor
// (classPicks). Where n_L is B, s0 — a multiple of n_L — and every row u
// share no bit, so owner(s0+u) = (owner(s0) + owner(u)) mod R: the rows fall
// into R classes by owner(u), partitioned once per attempt, and the pick at
// s0 is class (rank − owner(s0)) mod R — one owner call, no copy. Otherwise
// — a BlockOwner, any other source owner, an innermost factor of another
// size — the rank answers for every non-empty row per change of s0 and
// copies the rows it owns together (pick).
//
// The pick holds the factor in the form the cursor sweeps it
// (core.TailCursor.Packed): its graph.PackedArcs, 8 bytes an arc, expanded
// through core.ExpandPacked, where that is non-nil, else its ArcSlice
// through core.ExpandRun. The form is fixed when the walk meets the factor
// (load); one of wide and packed is then empty.
type ownedRows struct {
	owner   func(u int64) int
	rank    int
	batch   int         // arcs per emitted block
	classes *classPicks // the attempt's owner tables and class partitions under OwnerBySource; nil otherwise

	g       *graph.Graph // innermost factor of the pick
	s0      int64        // its source base; -1 until the first pick
	nz      []int64      // g's non-empty rows
	from    []int64      // from[k] is nz[k]'s first arc, from[len(nz)] g's arc count
	part    *classPart   // g's owner table under classes, and its classes when n_L is a power of two
	class   int32        // the class the pick is, when byClass
	mine    []uint64     // per-row pick: the owner's answer for each of nz at s0, a bit a row
	picked  int          // arcs in the pick
	wide    pickOf[graph.Edge]
	packed  pickOf[uint64]
	i, j    int          // the current sweep's owned arcs in the pick not yet expanded
	v0      int64        // the current sweep's target base
	scratch []graph.Edge // the emitted block, reused

	rows, copied int64 // Stats.OwnerRowsTested, Stats.ArcsCompacted
}

// pickOf is the pick in one element type: a graph.Edge of the factor's
// ArcSlice or a word of its PackedArcs.
type pickOf[E graph.Edge | uint64] struct {
	inner []E // the factor's arcs in this form (under a class pick, its classes'); nil when the walk reads the other
	arcs  []E // the pick: a window of inner, or a prefix of buf
	buf   []E // the per-row pick's copy, grown to len(inner) when the factor is loaded
}

func (p *pickOf[E]) load(inner []E, perRow bool) {
	p.inner, p.arcs = inner, nil
	if perRow {
		p.buf = slices.Grow(p.buf[:0], len(inner))
	}
}

// copyOwned points arcs at the rows o.mine marks and returns how many arcs
// that is: inner itself when all of them are, else a copy into buf with one
// append per maximal run of consecutive owned non-empty rows — the rows
// between two non-empty rows hold no arcs, so such a run is contiguous in
// inner. Bit i of up (down) marks a run starting (ending) at nz[64w+i], whose
// first arc is from[64w+i]; the two alternate, up first.
func (p *pickOf[E]) copyOwned(o *ownedRows, all bool) int {
	if p.arcs = p.inner; all {
		return len(p.arcs)
	}
	buf, start := p.buf[:0], int64(-1)
	var prev uint64 // the previous word's last bit, as bit 0
	for w, m := range o.mine {
		up, down := m&^(m<<1|prev), ^m&(m<<1|prev)
		for t := up | down; t != 0; t &= t - 1 {
			if at := o.from[w*64+bits.TrailingZeros64(t)]; start < 0 {
				start = at
			} else {
				buf, start = append(buf, p.inner[start:at]...), -1
			}
		}
		prev = m >> 63
	}
	if start >= 0 { // the last run ends at the last row, on a word edge
		buf = append(buf, p.inner[start:]...)
	}
	p.arcs = buf
	o.copied += int64(len(buf))
	return len(buf)
}

// sweep is the walk's step under a source owner (runAttempt's walk): it
// advances cur over one sweep — at most rem arcs of t's stream, which is
// what it reports — and makes the arcs of it this rank owns what next
// expands. A sweep the rank owns nothing of costs the odometer step.
func (o *ownedRows) sweep(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64) int64 {
	lo, hi, uPre, vPre := cur.NextSweep(rem)
	if lo == hi {
		o.i, o.j = 0, 0
		return 0
	}
	if g := t.Tail[len(t.Tail)-1]; g != o.g {
		o.load(g, cur.Packed())
	}
	if s0 := uBase + uPre; s0 != o.s0 {
		o.pick(s0)
	}
	// Owned rows are whole and in order, so a sweep cut short (by a tile's
	// Skip or Take: at most its first and its last) maps into the pick by row.
	o.i, o.j, o.v0 = 0, o.picked, vBase+vPre
	if hi-lo < int(o.from[len(o.nz)]) {
		o.i, o.j = o.index(lo), o.index(hi)
	}
	return int64(hi - lo)
}

// next expands the sweep's next ≤ batch owned arcs into the scratch block,
// and returns an empty block once they are all out: ExpandNext's loop over
// the pick, in the pick's form.
func (o *ownedRows) next() []graph.Edge {
	n := min(o.j-o.i, o.batch)
	if n == 0 {
		return nil
	}
	var block []graph.Edge
	if o.packed.inner != nil {
		block = core.ExpandPacked(o.scratch, o.packed.arcs[o.i:o.i+n], o.s0, o.v0)
	} else {
		block = core.ExpandRun(o.scratch, o.wide.arcs[o.i:o.i+n], o.s0, o.v0)
	}
	o.scratch, o.i = block[:0], o.i+n
	return block
}

// load makes g the factor of the pick, read packed when packed (g's
// PackedArcs) is non-nil and wide otherwise: it lists g's non-empty rows and
// where their arcs start, takes g's table and classes from the attempt's
// under OwnerBySource, and — unless the classes are the picks (byClass) —
// sizes the per-row pick's answer bits and buffer, once per factor.
func (o *ownedRows) load(g *graph.Graph, packed []uint64) {
	rowOff := g.RowOffsets()
	o.g, o.s0 = g, -1
	o.nz, o.from = slices.Grow(o.nz[:0], len(rowOff)), slices.Grow(o.from[:0], len(rowOff))
	for u := 0; u+1 < len(rowOff); u++ {
		if rowOff[u] != rowOff[u+1] {
			o.nz, o.from = append(o.nz, int64(u)), append(o.from, rowOff[u])
		}
	}
	o.from = append(o.from, rowOff[len(rowOff)-1])
	o.part = nil
	if o.classes != nil {
		o.part = o.classes.of(g, packed, o.nz, o.from)
		if o.byClass() {
			o.wide.load(o.part.wide, false)
			o.packed.load(o.part.packed, false)
			return
		}
	}
	words := (len(o.nz) + 63) / 64
	o.mine = slices.Grow(o.mine[:0], words)[:words]
	if packed != nil {
		o.wide.load(nil, true)
		o.packed.load(packed, true)
	} else {
		o.wide.load(g.ArcSlice(), true)
		o.packed.load(nil, true)
	}
}

// pick makes the rank's pick at source base s0. By class it is a lookup:
// the class that adds to owner(s0) to make the rank. Otherwise it answers
// for every non-empty row of the factor, in two passes: first the answers,
// a bit a row, then one copy per run of set bits. Under a map that mixes
// its bits the answer is a coin flip per row, and kept as data it costs a
// SETcc where a branch on it mispredicts every other row. Nothing is copied
// when every row is owned — the pick is then the factor itself: the one
// rank of R = 1, or a BlockOwner block that covers the sweep. The per-row
// pick runs under phase=filter and puts the walk's phase=expand back when
// it returns.
func (o *ownedRows) pick(s0 int64) {
	o.s0 = s0
	p := o.part
	if o.byClass() {
		o.rows++
		c := o.rank - o.owner(s0)
		if c < 0 {
			c += o.classes.r
		}
		o.class = int32(c)
		lo, hi := p.at[c], p.at[c+1]
		if o.packed.inner != nil {
			o.packed.arcs = o.packed.inner[lo:hi]
		} else {
			o.wide.arcs = o.wide.inner[lo:hi]
		}
		o.picked = hi - lo
		return
	}
	pprof.SetGoroutineLabels(filterLabels)
	defer pprof.SetGoroutineLabels(expandLabels)
	o.rows += int64(len(o.nz))
	// Under OwnerBySource s0+u is h + x for h = s0 − l (l = s0 mod B) and
	// x = l+u, or h+B and x−B once x reaches B — bits apart either way: two
	// owner calls a pick and the factor's table for x, not a call a row.
	var b, l int64
	var h, hb int
	if p != nil {
		b = int64(len(p.low))
		l = s0 & (b - 1)
		h, hb = o.owner(s0-l), o.owner(s0-l+b)
	}
	owned := 0
	for w := range o.mine {
		var m uint64
		for i, u := range o.nz[w*64 : min(len(o.nz), w*64+64)] {
			var own int
			if p != nil {
				x, hx := l+u, h
				if x >= b {
					x, hx = x-b, hb
				}
				if own = hx + int(p.low[x]); own >= o.classes.r {
					own -= o.classes.r
				}
			} else {
				own = o.owner(s0 + u)
			}
			var bit uint64
			if own == o.rank {
				bit = 1
			}
			m |= bit << i
		}
		o.mine[w] = m
		owned += bits.OnesCount64(m)
	}
	if all := owned == len(o.nz); o.packed.inner != nil {
		o.picked = o.packed.copyOwned(o, all)
	} else {
		o.picked = o.wide.copyOwned(o, all)
	}
}

// byClass reports whether the pick is a class lookup.
func (o *ownedRows) byClass() bool { return o.part != nil && o.part.at != nil }

// index maps position pos of the factor's arcs to the pick: the owned arcs
// before it. It reads the rows' offsets and which of them the pick holds —
// their class, or the answer bits — not the pick, so it is the same in both
// forms.
func (o *ownedRows) index(pos int) int {
	n := 0
	for k := range o.nz {
		lo := int(o.from[k])
		if lo >= pos {
			break
		}
		var owned bool
		if o.byClass() {
			owned = o.part.low[o.nz[k]] == o.class
		} else {
			owned = o.mine[k/64]&(1<<(k%64)) != 0
		}
		if owned {
			n += min(int(o.from[k+1]), pos) - lo
		}
	}
	return n
}

// classPicks is one attempt's owner tables and class partitions of the
// innermost factors its ranks meet under OwnerBySource, the one owner that
// adds over disjoint bits (ownedRows): made by the first rank to load a
// factor, then shared read-only by every rank of the process.
type classPicks struct {
	owner func(u int64) int
	r     int

	mu     sync.Mutex
	parts  map[*graph.Graph]*classPart
	low    []int32 // the last factor's owner table, which the next of its size shares
	copied int64   // arcs copied into the partitions: Stats.ArcsCompacted
}

// classPart is one factor under OwnerBySource: low[x] is owner(x) for every
// x below B, the least power of two ≥ n_L. Where n_L is B, the rows are
// also partitioned by it into R classes: class c holds the arcs of every
// non-empty row u with owner(u) == c, whole and in CSR order, at
// [at[c], at[c+1]) of the form's arcs; elsewhere at is nil.
type classPart struct {
	low    []int32
	at     []int
	wide   []graph.Edge
	packed []uint64 // the arcs in the walk's form; the other is nil
}

// newClassPicks returns the attempt's tables and partitions for owner at r
// ranks (bySource its source form), or nil unless owner is OwnerBySource.
func newClassPicks(owner Owner, bySource func(u int64) int, r int) *classPicks {
	if f, ok := owner.(OwnerFunc); !ok || !f.isBySource() {
		return nil
	}
	return &classPicks{owner: bySource, r: r, parts: make(map[*graph.Graph]*classPart)}
}

// of returns g's classes (nz and from are g's non-empty rows and their
// offsets), on the first call tabulating the owner below B — once for all
// factors of one size, as a 2D plan's parts are — and, where n_L is B,
// partitioning the factor in the form packed names, the one every rank of
// the process sweeps (core.TailCursor.Packed): one copy per non-empty row,
// under phase=filter. A factor whose rows all fall in one class is its own
// partition.
func (cp *classPicks) of(g *graph.Graph, packed []uint64, nz, from []int64) *classPart {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	if p := cp.parts[g]; p != nil {
		return p
	}
	pprof.SetGoroutineLabels(filterLabels)
	defer pprof.SetGoroutineLabels(expandLabels)
	n := g.NumVertices()
	if b := 1 << bits.Len64(uint64(n-1)); len(cp.low) != b {
		cp.low = make([]int32, b)
		for x := range cp.low {
			cp.low[x] = int32(cp.owner(int64(x)))
		}
	}
	p := &classPart{low: cp.low}
	cp.parts[g] = p
	if int64(len(p.low)) != n {
		return p
	}
	p.at = make([]int, cp.r+1)
	for k, u := range nz {
		p.at[p.low[u]+1] += int(from[k+1] - from[k])
	}
	arcs, whole := int(from[len(nz)]), false
	for c := range cp.r {
		p.at[c+1] += p.at[c]
		whole = whole || p.at[c+1]-p.at[c] == arcs
	}
	if packed != nil {
		p.packed = partition(p, packed, nz, from, whole)
	} else {
		p.wide = partition(p, g.ArcSlice(), nz, from, whole)
	}
	if !whole {
		cp.copied += int64(arcs)
	}
	return p
}

// partition lays inner's non-empty rows out class by class, each row whole
// and in CSR order: inner itself when one class holds every arc (whole).
func partition[E graph.Edge | uint64](p *classPart, inner []E, nz, from []int64, whole bool) []E {
	if whole {
		return inner
	}
	out := make([]E, len(inner))
	next := slices.Clone(p.at)
	for k, u := range nz {
		c := p.low[u]
		next[c] += copy(out[next[c]:], inner[from[k]:from[k+1]])
	}
	return out
}
