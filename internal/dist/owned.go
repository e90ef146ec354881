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
// source base s0, in the walk's block form B: the arcs of every row u with
// owner(s0+u) == rank, whole and in order, in one contiguous slice. Within a
// sweep of core.TailCursor every source is s0+e.U, and consecutive sweeps
// share s0 (head arcs and outer tail arcs are CSR-ordered: about a mean
// degree of them), so a pick is made once per change of s0 and every sweep
// with that s0 expands arcs[i:j] like any other run.
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
// The pick holds the factor in the walk's form (form.source): its
// graph.PackedArcs, 8 bytes an arc, in a packed walk, and its ArcSlice in a
// wide one.
type ownedRows[B graph.Edge | uint64] struct {
	owner   func(u int64) int
	rank    int
	batch   int            // arcs per emitted block
	classes *classPicks[B] // the attempt's owner tables and class partitions under OwnerBySource; nil otherwise

	g     *graph.Graph  // innermost factor of the pick
	s0    int64         // its source base; -1 until the first pick
	nz    []int64       // g's non-empty rows
	from  []int64       // from[k] is nz[k]'s first arc, from[len(nz)] g's arc count
	off   []int64       // g's row offsets
	part  *classPart[B] // g's owner table under classes, and its classes when n_L is a power of two
	class int32         // the class the pick is, when byClass
	empty []uint64      // g's empty rows, a bit a row
	mine  []uint64      // per-row pick: a bit a row of g, set where the rank owns it at s0 or it is empty
	inner []B           // g's arcs (under a class pick, its classes')
	arcs  []B           // the pick: a window of inner, or a prefix of buf
	buf   []B           // the per-row pick's copy, grown to len(inner) when g is loaded
	i, j  int           // the current sweep's owned arcs in the pick not yet expanded
	v0    int64         // the current sweep's target base

	rows, copied int64 // Stats.OwnerRowsTested, Stats.ArcsCompacted
}

// copyOwned points arcs at the rows mine marks: inner itself when it marks
// every row, else a copy into buf with one copy per maximal run of marked
// rows — an empty row holds no arcs, so mine marks it whatever its owner,
// and a run of marked rows is contiguous in inner. Bit i of up (down) marks
// a run starting (ending) at row 64w+i, whose first arc is off[64w+i]; the
// two alternate, up first.
func (o *ownedRows[B]) copyOwned() {
	marked := 0
	for _, m := range o.mine {
		marked += bits.OnesCount64(m)
	}
	if o.arcs = o.inner; marked == len(o.off)-1 {
		return
	}
	buf, n, start := o.buf[:len(o.inner)], 0, int64(-1)
	var prev uint64 // the previous word's last bit, as bit 0
	for w, m := range o.mine {
		up, down := m&^(m<<1|prev), ^m&(m<<1|prev)
		for t := up | down; t != 0; t &= t - 1 {
			if at := o.off[w*64+bits.TrailingZeros64(t)]; start < 0 {
				start = at
			} else {
				n += copy(buf[n:], o.inner[start:at])
				start = -1
			}
		}
		prev = m >> 63
	}
	if start >= 0 { // the last run ends at the last row, on a word edge
		n += copy(buf[n:], o.inner[start:])
	}
	o.arcs = buf[:n]
	o.copied += int64(n)
}

// sweep is the walk's step under a source owner (runAttempt's walk): it
// advances cur over one sweep — at most rem arcs of t's stream, which is
// what it reports — and makes the arcs of it this rank owns, [i, j) of the
// pick with the bases (s0, v0), what walk.owned expands. A sweep the rank
// owns nothing of costs the odometer step. cur's innermost factor is the
// one the walk last loaded.
func (o *ownedRows[B]) sweep(cur *core.TailCursor, uBase, vBase, rem int64) int64 {
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
	o.i, o.j, o.v0 = 0, len(o.arcs), vBase+vPre
	if hi-lo < int(o.from[len(o.nz)]) {
		o.i, o.j = o.index(lo), o.index(hi)
	}
	return int64(hi - lo)
}

// load makes g, whose arcs in the walk's form are inner, the factor of the
// pick: it lists g's non-empty rows and where their arcs start, takes g's
// table and classes from the attempt's under OwnerBySource, and — unless the
// classes are the picks (byClass) — sizes the per-row pick's answer bits and
// buffer, once per factor.
func (o *ownedRows[B]) load(g *graph.Graph, inner []B) {
	rowOff := g.RowOffsets()
	o.g, o.s0 = g, -1
	o.nz, o.from = slices.Grow(o.nz[:0], len(rowOff)), slices.Grow(o.from[:0], len(rowOff))
	for u := 0; u+1 < len(rowOff); u++ {
		if rowOff[u] != rowOff[u+1] {
			o.nz, o.from = append(o.nz, int64(u)), append(o.from, rowOff[u])
		}
	}
	o.from = append(o.from, rowOff[len(rowOff)-1])
	o.off, o.part, o.inner, o.arcs = rowOff, nil, inner, nil
	if o.classes != nil {
		o.part = o.classes.of(g, inner, o.nz, o.from)
		if o.byClass() {
			o.inner = o.part.arcs
			return
		}
	}
	words := (len(rowOff) + 62) / 64
	o.mine, o.empty = slices.Grow(o.mine[:0], words)[:words], slices.Grow(o.empty[:0], words)[:words]
	clear(o.empty)
	for u := range len(rowOff) - 1 {
		if rowOff[u] == rowOff[u+1] {
			o.empty[u/64] |= 1 << (u % 64)
		}
	}
	o.buf = slices.Grow(o.buf[:0], len(inner))
}

// pick makes the rank's pick at source base s0. By class it is a lookup:
// the class that adds to owner(s0) to make the rank. Otherwise it marks the
// rows the rank owns at s0 in mine, a bit a row, then copies each run of
// marked rows (copyOwned). Under a map that mixes its bits the answer is a
// coin flip per row, and kept as data it costs a SETcc where a branch on it
// mispredicts every other row. Nothing is copied when every row is owned —
// the pick is then the factor itself: the one rank of R = 1, or a
// BlockOwner block that covers the sweep. The per-row pick runs under
// phase=filter and puts the walk's phase=expand back when it returns.
func (o *ownedRows[B]) pick(s0 int64) {
	o.s0 = s0
	p := o.part
	if o.byClass() {
		o.rows++
		o.class = o.classAt(s0)
		o.arcs = o.inner[p.at[o.class]:p.at[o.class+1]]
		return
	}
	pprof.SetGoroutineLabels(filterLabels)
	defer pprof.SetGoroutineLabels(expandLabels)
	o.rows += int64(len(o.nz))
	copy(o.mine, o.empty)
	if p == nil {
		for _, u := range o.nz {
			var bit uint64
			if o.owner(s0+u) == o.rank {
				bit = 1
			}
			o.mine[u/64] |= bit << (u % 64)
		}
		o.copyOwned()
		return
	}
	// Under OwnerBySource s0+u is h + x for h = s0 − l (l = s0 mod B) and
	// x = l+u, or h+B and x−B once x reaches B — bits apart either way, so
	// the rank owns u where low[x] is the class at h, or low[x−B] the class
	// at h+B: two owner calls a pick and one compare a row, over the
	// factor's table in order.
	b := int64(len(p.low))
	l := s0 & (b - 1)
	split := min(int64(len(o.off)-1), b-l) // the rows whose x is below B
	o.mark(0, p.low[l:l+split], o.classAt(s0-l))
	o.mark(int(split), p.low[:int64(len(o.off)-1)-split], o.classAt(s0-l+b))
	o.copyOwned()
}

// classAt is the class of rows the rank owns at source base h under
// OwnerBySource: owner(h+x) = owner(h) + low[x] mod R for every x that
// shares no bit with h, so the rank owns those with low[x] = rank − owner(h)
// mod R.
func (o *ownedRows[B]) classAt(h int64) int32 {
	c := o.rank - o.owner(h)
	if c < 0 {
		c += o.classes.r
	}
	return int32(c)
}

// mark sets in mine the bit of every row lo+i whose table entry t[i] is c,
// a word of bits at a time.
func (o *ownedRows[B]) mark(lo int, t []int32, c int32) {
	for i := 0; i < len(t); {
		u := lo + i
		k := min(len(t)-i, 64-u%64)
		var m uint64
		for j, x := range t[i : i+k] {
			var bit uint64
			if x == c {
				bit = 1
			}
			m |= bit << j
		}
		o.mine[u/64] |= m << (u % 64)
		i += k
	}
}

// byClass reports whether the pick is a class lookup.
func (o *ownedRows[B]) byClass() bool { return o.part != nil && o.part.at != nil }

// index maps position pos of the factor's arcs to the pick: the owned arcs
// before it. It reads the rows' offsets and which of them the pick holds —
// their class, or the answer bits — not the pick.
func (o *ownedRows[B]) index(pos int) int {
	n := 0
	for k := range o.nz {
		lo := int(o.from[k])
		if lo >= pos {
			break
		}
		var owned bool
		if u := o.nz[k]; o.byClass() {
			owned = o.part.low[u] == o.class
		} else {
			owned = o.mine[u/64]&(1<<(u%64)) != 0
		}
		if owned {
			n += min(int(o.from[k+1]), pos) - lo
		}
	}
	return n
}

// classPicks is one attempt's owner tables and class partitions, in the
// walk's form B, of the innermost factors its ranks meet under
// OwnerBySource, the one owner that adds over disjoint bits (ownedRows):
// made by the first rank to load a factor, then shared read-only by every
// rank of the process.
type classPicks[B graph.Edge | uint64] struct {
	owner func(u int64) int
	r     int

	mu     sync.Mutex
	parts  map[*graph.Graph]*classPart[B]
	low    []int32 // the last factor's owner table, which the next of its size shares
	copied int64   // arcs copied into the partitions: Stats.ArcsCompacted
}

// classPart is one factor under OwnerBySource: low[x] is owner(x) for every
// x below B, the least power of two ≥ n_L. Where n_L is B, the rows are
// also partitioned by it into R classes: class c holds the arcs of every
// non-empty row u with owner(u) == c, whole and in CSR order, at
// [at[c], at[c+1]) of arcs; elsewhere at and arcs are nil.
type classPart[B graph.Edge | uint64] struct {
	low  []int32
	at   []int
	arcs []B
}

// newClassPicks returns the attempt's tables and partitions for owner at r
// ranks (bySource its source form), or nil unless owner is OwnerBySource.
func newClassPicks[B graph.Edge | uint64](owner Owner, bySource func(u int64) int, r int) *classPicks[B] {
	if f, ok := owner.(OwnerFunc); !ok || !f.isBySource() {
		return nil
	}
	return &classPicks[B]{owner: bySource, r: r, parts: make(map[*graph.Graph]*classPart[B])}
}

// of returns g's classes (inner is g's arcs in the walk's form, nz and from
// its non-empty rows and their offsets), on the first call tabulating the
// owner below B — once for all factors of one size, as a 2D plan's parts
// are — and, where n_L is B, partitioning inner: one copy per non-empty
// row, under phase=filter. A factor whose rows all fall in one class is its
// own partition.
func (cp *classPicks[B]) of(g *graph.Graph, inner []B, nz, from []int64) *classPart[B] {
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
	p := &classPart[B]{low: cp.low}
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
	if whole {
		p.arcs = inner
		return p
	}
	p.arcs = make([]B, len(inner))
	next := slices.Clone(p.at)
	for k, u := range nz {
		c := p.low[u]
		next[c] += copy(p.arcs[next[c]:], inner[from[k]:from[k+1]])
	}
	cp.copied += int64(arcs)
	return p
}
