package dist

import (
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
// outer tail arcs are CSR-ordered: about a mean degree of them), so the
// owner is asked once per non-empty row per change of s0 and every sweep
// with that s0 expands arcs[i:j] like any other run — the cost of placing
// does not grow with the rank count the way a per-row test in the walk
// would (R row visits for every row produced).
//
// The pick holds the factor in the form the cursor sweeps it
// (core.TailCursor.Packed): its graph.PackedArcs, 8 bytes an arc, expanded
// through core.ExpandPacked, where that is non-nil, else its ArcSlice
// through core.ExpandRun. The form is fixed when the walk meets the factor
// (load); one of wide and packed is then empty.
type ownedRows struct {
	owner func(u int64) int
	rank  int
	batch int // arcs per emitted block

	g       *graph.Graph // innermost factor of the pick
	s0      int64        // its source base; -1 until the first pick
	nz      []int64      // g's non-empty rows
	from    []int64      // from[k] is nz[k]'s first arc, from[len(nz)] g's arc count
	mine    []uint64     // the owner's answer for each of nz at s0, a bit a row
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
	inner []E // the factor's arcs in this form; nil when the walk reads the other
	arcs  []E // the pick: inner itself when every row is owned, else a prefix of buf
	buf   []E // grown to len(inner) when the factor is loaded
}

func (p *pickOf[E]) load(inner []E) {
	p.inner, p.arcs = inner, nil
	p.buf = slices.Grow(p.buf[:0], len(inner))
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
// where their arcs start, and sizes the answer bits and the form's buffer,
// once per factor.
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
	words := (len(o.nz) + 63) / 64
	o.mine = slices.Grow(o.mine[:0], words)[:words]
	if packed != nil {
		o.wide.load(nil)
		o.packed.load(packed)
	} else {
		o.wide.load(g.ArcSlice())
		o.packed.load(nil)
	}
}

// pick asks the owner about every non-empty row of the factor at source
// base s0, in two passes: first the answers, a bit a row, then one copy per
// run of set bits. Under a map that mixes its bits the answer is a coin flip
// per row, and kept as data it costs a SETcc where a branch on it
// mispredicts every other row. Nothing is copied when every row is owned —
// the pick is then the factor itself: the one rank of R = 1, or a
// BlockOwner block that covers the sweep. It runs under phase=filter and
// puts the walk's phase=expand back when it returns.
func (o *ownedRows) pick(s0 int64) {
	pprof.SetGoroutineLabels(filterLabels)
	defer pprof.SetGoroutineLabels(expandLabels)
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
	if all := owned == len(o.nz); o.packed.inner != nil {
		o.picked = o.packed.copyOwned(o, all)
	} else {
		o.picked = o.wide.copyOwned(o, all)
	}
}

// index maps position pos of the factor's arcs to the pick: the owned arcs
// before it. It reads the rows' offsets and the answer bits, not the pick,
// so it is the same in both forms.
func (o *ownedRows) index(pos int) int {
	n := 0
	for k := range o.nz {
		lo := int(o.from[k])
		if lo >= pos {
			break
		}
		if o.mine[k/64]&(1<<(k%64)) != 0 {
			n += min(int(o.from[k+1]), pos) - lo
		}
	}
	return n
}
