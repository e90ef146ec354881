package dist

// Owner-side generation against its reference. Under a source owner every
// rank walks every tile and expands only the rows it owns (ownedRows); each
// tile's serial stream filtered by the same owner map, edge by edge, is the
// very same arcs — per (tile, rank) substream in the same order, because
// that order is what checkpoints and a replay's stored prefix count in.

import (
	"context"
	"fmt"
	"io"
	"math/bits"
	"os"
	"os/exec"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// tileRecorder is a sink that keeps what each rank was handed, per tile and
// in arrival order.
type tileRecorder struct {
	byTile []map[int][]graph.Edge // [rank][tile]
	flat   [][]graph.Edge         // [rank], every tile, in arrival order
}

func newTileRecorder(r int) *tileRecorder {
	s := &tileRecorder{byTile: make([]map[int][]graph.Edge, r), flat: make([][]graph.Edge, r)}
	for i := range s.byTile {
		s.byTile[i] = make(map[int][]graph.Edge)
	}
	return s
}

func (s *tileRecorder) Rank(rk *Rank) (RankSink, error) {
	return &tileRecorderRank{s: s, id: rk.ID()}, nil
}

type tileRecorderRank struct {
	s  *tileRecorder
	id int
}

func (t *tileRecorderRank) Store(graph.Edge) error {
	return fmt.Errorf("tileRecorder wants tile-framed blocks")
}

func (t *tileRecorderRank) StoreTileBlock(tile int, edges []graph.Edge) (int64, error) {
	t.s.byTile[t.id][tile] = append(t.s.byTile[t.id][tile], edges...)
	t.s.flat[t.id] = append(t.s.flat[t.id], edges...)
	return int64(len(edges)), nil
}

func (t *tileRecorderRank) Close() error { return nil }

// ownedReference is what each rank of the plan must store under a source
// owner: every tile's stream — core.Chain.Arcs of the
// tile's head arcs, its part of the first tail factor as a graph and the
// rest of the tail, windowed by Skip and Take — filtered by the owner, per
// (tile, rank) and, tile by tile in ID order, per rank.
func ownedReference(plan Plan, owner func(u int64) int) *tileRecorder {
	ref := newTileRecorder(plan.R)
	var tiles []Tile
	for _, ts := range plan.Tiles {
		tiles = append(tiles, ts...)
	}
	slices.SortFunc(tiles, func(a, b Tile) int { return a.ID - b.ID })
	for _, t := range tiles {
		part := mustGraph(plan.Tail[0].NumVertices(), plan.Tail[0].ArcSlice()[t.Lo:t.Hi])
		ch := mustChain(append([]*graph.Graph{mustGraph(plan.Dims[0], t.AArcs), part}, plan.Tail[1:]...)...)
		end, i := t.Skip+plan.Arcs(t), int64(0)
		ch.Arcs(func(u, v int64) bool {
			if i >= t.Skip && i < end {
				rank, e := owner(u), graph.Edge{U: u, V: v}
				ref.byTile[rank][t.ID] = append(ref.byTile[rank][t.ID], e)
				ref.flat[rank] = append(ref.flat[rank], e)
			}
			i++
			return i < end
		})
	}
	return ref
}

// TestOwnerSideMatchesOwnedReference is the differential safety net of
// owner-side generation: for every cell of
// chain shape (k = 1 with its
// identity tail, 2 and 3; empty rows in the innermost factor and in the
// head, a loop-only factor, a one-row head, an empty factor; innermost
// factors whose vertex count is a power of two and ones whose count is not,
// which OwnerBySource picks by class alike) × layout × R × batch size
// (dividing sweeps and not) × source owner (hash, block, and blocks of
// 16·NC sources, under which rank 0 owns every row and every other rank
// steps over every sweep empty-handed) × stream window, the run under the
// source owner must
// store per (tile, rank) exactly the substream, in order, of each tile's
// serial stream filtered by the owner (ownedReference). The windows of the
// 1D
// stream, whose order is the serial order, start and stop mid-row, on a
// row boundary, on a sweep boundary and inside the first and the last head
// arc; there the ranks' outputs are also held to the serial oracle, in
// canonical order.
func TestOwnerSideMatchesOwnedReference(t *testing.T) {
	loops := func(n int64) *graph.Graph { return mustGraph(n, nil).WithFullSelfLoops() }
	empty := mustGraph(3, nil)
	// One source row: under 2D every tile has the same source base, and only
	// the part of the second factor it is crossed with tells two tiles apart.
	fan := mustGraph(4, []graph.Edge{{U: 1, V: 0}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	shapes := []struct {
		name    string
		ch      *core.Chain
		windows int // kinds of window the shape's stream has positions for
	}{
		{"k1", mustChain(gen.MustRMAT(gen.Graph500Params(3, 451))), 2}, // a sweep is one arc, and so is a head arc's share
		{"k2", mustChain(gen.ER(6, 0.5, 452), gen.PrefAttach(6, 2, 453)), 4},
		{"k2_gappy_inner", mustChain(gen.PrefAttach(5, 2, 454), evens(gen.ER(4, 0.6, 455))), 4},
		{"k2_gappy_head", mustChain(evens(gen.ER(4, 0.6, 456)), gen.PrefAttach(5, 2, 457)), 4},
		{"k2_loops_inner", mustChain(gen.ER(5, 0.6, 458), loops(4)), 3}, // a row is one arc: none to be inside of
		{"k2_loops_head", mustChain(loops(4), gen.ER(5, 0.6, 459)), 4},
		{"k3", mustChain(gen.ER(4, 0.6, 460), gen.PrefAttach(4, 2, 461), evens(gen.ER(3, 0.7, 462))), 4},
		{"k3_loops_mid", mustChain(gen.ER(4, 0.6, 463), loops(3), gen.PrefAttach(4, 2, 464)), 4},
		{"k2_one_head_row", mustChain(fan, gen.PrefAttach(6, 2, 468)), 4},
		{"k2_empty_inner", mustChain(gen.ER(4, 0.6, 465), empty), 0},
		{"k3_empty_head", mustChain(empty, gen.ER(4, 0.6, 466), gen.PrefAttach(4, 2, 467)), 0},
		// R-MAT innermost factors, 8 and 16 vertices: OwnerBySource looks
		// their picks up by class.
		{"k2_rmat_inner", mustChain(gen.ER(5, 0.6, 474), gen.MustRMAT(gen.Graph500Params(3, 475))), 4},
		{"k3_rmat_inner", mustChain(gen.ER(3, 0.7, 476), gen.PrefAttach(3, 2, 477), gen.MustRMAT(gen.Graph500Params(4, 478))), 4},
	}
	// OwnerBySource picks by class on every innermost factor, its map padded
	// to a power of two where the vertex count is not one: chains of depth 2
	// and 3 with rows to cut must each meet both kinds of factor.
	type path struct {
		k      int
		padded bool
	}
	paths := map[path]bool{}
	for _, sh := range shapes {
		f := sh.ch.Factors()
		if len(f) > 1 && sh.windows == 4 {
			paths[path{len(f), bits.OnesCount64(uint64(f[len(f)-1].NumVertices())) != 1}] = true
		}
	}
	if len(paths) != 4 {
		t.Fatalf("shapes with rows to cut cover %v; want k = 2 and 3 each on an innermost factor of a power-of-two vertex count and of another", paths)
	}
	owners := []struct {
		name  string
		owner func(nC int64) Owner
	}{
		{"hash", func(int64) Owner { return OwnerBySource }},
		{"block", func(nC int64) Owner { return BlockOwner{NC: nC} }},
		{"starved", func(nC int64) Owner { return BlockOwner{NC: 16 * nC} }},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			serial := referenceArcs(sh.ch)
			windows := serialWindows(sh.ch, serial)
			if len(windows) != sh.windows {
				t.Fatalf("%d kinds of window found, want %d; pick other factors", len(windows), sh.windows)
			}
			for _, twoD := range []bool{false, true} {
				for _, r := range []int{1, 2, 3, 4, 5, 16} {
					whole, err := planForChain(sh.ch, r, twoD)
					if err != nil {
						t.Fatal(err)
					}
					for wi := -1; wi < len(windows); wi++ {
						plan, want := whole, serial
						if wi >= 0 {
							w := windows[wi]
							if plan, err = whole.Slice(int64(w[0]), int64(w[1]-w[0])); err != nil {
								t.Fatal(err)
							}
							want = serial[w[0]:w[1]]
						}
						if twoD {
							want = nil // a 2D plan streams in tile-grid order: the serial order is no oracle for it
						}
						for _, o := range owners {
							so := o.owner(plan.NC)
							cell := fmt.Sprintf("%s r=%d window=%d owner=%s", map[bool]string{false: "1d", true: "2d"}[twoD], r, wi, o.name)
							ref := ownedReference(plan, placer(so, plan))
							for _, batch := range []int{1, 5, DefaultBatchSize} {
								got := newTileRecorder(r)
								st, err := Run(context.Background(), Config{Plan: plan, Owner: so, Sink: got, BatchSize: batch})
								if err != nil {
									t.Fatalf("%s batch=%d: %v", cell, batch, err)
								}
								assertOwnedCell(t, fmt.Sprintf("%s batch=%d", cell, batch), got, ref, st, placer(so, plan), want)
							}
						}
					}
				}
			}
		})
	}
}

// evens returns g on the even vertices of twice as many: every other row
// empty.
func evens(g *graph.Graph) *graph.Graph {
	var arcs []graph.Edge
	for _, e := range g.ArcSlice() {
		arcs = append(arcs, graph.Edge{U: 2 * e.U, V: 2 * e.V})
	}
	return mustGraph(2*g.NumVertices(), arcs)
}

// TestOwnedRowsBothForms holds the owner-side walk to core.Chain.Arcs, its
// pick holding the factor's narrow or packed arcs, as the cursor reads them
// (through core.ExpandSourceTo, the blocks widened with their bases for the
// comparison); each cell's
// walk — R ∈ {1, 2, 3, 16}, every rank, under OwnerBySource's class pick and
// BlockOwner's range, batch 1, 7 and 1024, the ranks of a cell sharing one
// placing as an attempt's do — must emit exactly the window of the chain's
// arcs its owner gives the rank, in order, in blocks of ≤ batch. The
// innermost factors have empty rows, a single row, and vertex counts that
// are a power of two and that are not (64; 136 and 70, padded to 256 and
// 128); the windows are the whole stream and one whose Skip and Take cut
// its first and last sweep mid-row (index). Every pick the walk makes must equal
// the row-by-row pick — the rows the owner gives the rank, appended one at a
// time — element for element; OwnerRowsTested must count one per pick, and
// ArcsCompacted the factor's arcs once under OwnerBySource (none where its
// rows all fall in one class) and none under a BlockOwner. (The test is
// named for the wide and packed walks it ran until every product took the
// packed one.)
func TestOwnedRowsBothForms(t *testing.T) {
	// ring is n vertices, row u holding u → u+1 and u → 3u+1 (mod n) unless
	// u ≡ gap−1 (mod gap): with gap 0 every row is non-empty.
	ring := func(n, gap int64) *graph.Graph {
		var arcs []graph.Edge
		for u := int64(0); u < n; u++ {
			if gap == 0 || u%gap != gap-1 {
				arcs = append(arcs, graph.Edge{U: u, V: (u + 1) % n}, graph.Edge{U: u, V: (3*u + 1) % n})
			}
		}
		return mustGraph(n, arcs)
	}
	fan := mustGraph(4, []graph.Edge{{U: 1, V: 0}, {U: 1, V: 1}, {U: 1, V: 2}, {U: 1, V: 3}})
	shapes := []struct {
		name string
		ch   *core.Chain
	}{
		{"gappy", mustChain(gen.ER(5, 0.6, 491), evens(gen.PrefAttach(6, 2, 492)))},
		{"one_row", mustChain(gen.ER(6, 0.6, 493), fan)},
		{"word64", mustChain(gen.ER(5, 0.6, 494), ring(64, 0))},          // a power of two, every row non-empty
		{"word128_gappy", mustChain(gen.ER(4, 0.7, 495), ring(136, 17))}, // padded to 256, eight empty rows
		{"k3", mustChain(gen.ER(3, 0.7, 496), gen.PrefAttach(3, 2, 497), ring(70, 9))},
	}
	for _, sh := range shapes {
		sh := sh
		t.Run(sh.name, func(t *testing.T) {
			t.Parallel()
			f := sh.ch.Factors()
			var serial []graph.Edge
			sh.ch.Arcs(func(u, v int64) bool { serial = append(serial, graph.Edge{U: u, V: v}); return true })
			midRow := func(from, to int) int {
				for i := max(from, 1); i < to; i++ {
					if serial[i-1].U == serial[i].U {
						return i
					}
				}
				t.Fatalf("no position inside a row in [%d, %d)", from, to)
				return 0
			}
			lo, hi := midRow(1, len(serial)/3), midRow(2*len(serial)/3, len(serial))
			for _, win := range [][2]int{{0, len(serial)}, {lo, hi}} {
				tail := f[1:]
				tile := Tile{AArcs: f[0].ArcSlice(), Hi: int(tail[0].NumArcs()), Skip: int64(win[0]), Take: int64(win[1] - win[0])}
				for _, so := range []Owner{OwnerBySource, BlockOwner{NC: sh.ch.NumVertices()}} {
					for _, r := range []int{1, 2, 3, 16} {
						owner := placer(so, Plan{R: r, Tail: tail, Tiles: [][]Tile{{tile}}})
						for _, batch := range []int{1, 7, DefaultBatchSize} {
							place := newPlacing(so, owner, r, tail)
							for rank := 0; rank < r; rank++ {
								var want []graph.Edge
								for _, e := range serial[win[0]:win[1]] {
									if owner(e.U) == rank {
										want = append(want, e)
									}
								}
								cell := fmt.Sprintf("window %v, %T r=%d rank %d batch %d", win, so, r, rank, batch)
								checkOwnedWalk(t, cell, tail, &tile, place.rows(rank, batch), want)
							}
							// A range copies nothing, and neither does one class that
							// holds every row's arcs.
							var want int64
							if _, block := so.(BlockOwner); !block {
								inner, perClass := f[len(f)-1], make([]int64, r)
								for u := range inner.NumVertices() {
									perClass[owner(u)] += inner.Degree(u)
								}
								if slices.Max(perClass) < inner.NumArcs() {
									want = inner.NumArcs()
								}
							}
							if place.copied != want {
								t.Fatalf("window %v, %T r=%d batch %d: ArcsCompacted %d, want %d", win, so, r, batch, place.copied, want)
							}
						}
					}
				}
			}
		})
	}
}

// checkOwnedWalk walks the tile as runAttempt's walk.tiles does and holds
// what it emits, widened with each block's base, to want, each pick to the
// row-by-row pick in the layout the cursor reads (core.SourceOf: the pick
// expanded with base 0, arc for arc) and OwnerRowsTested to one count a
// pick.
func checkOwnedWalk(t *testing.T, cell string, tail []*graph.Graph, tile *Tile, o *ownedRows, want []graph.Edge) {
	t.Helper()
	inner := tail[len(tail)-1]
	src, off := core.SourceOf(inner), inner.RowOffsets()
	w := ownedWalk(o)
	var got []graph.Edge
	emit := func(_ int, block []uint64, u0, v0 int64) bool {
		if len(block) == 0 || len(block) > o.batch {
			t.Fatalf("%s: a block of %d arcs", cell, len(block))
		}
		got = core.ExpandPacked(got, block, u0, v0)
		return true
	}
	var picks int64
	checked := int64(-1)
	step := func(cur *core.TailCursor, uBase, vBase, rem int64) (int64, bool) {
		n, ok := w.step(tile, cur, uBase, vBase, rem, emit)
		if o.s0 == checked {
			return n, ok
		}
		checked, picks = o.s0, picks+1
		var rows []uint64
		for u := int64(0); u < inner.NumVertices(); u++ {
			if o.p.owner(o.s0+u) == o.rank {
				rows = core.ExpandSourceTo(rows, src.Slice(int(off[u]), int(off[u+1])), 0)
			}
		}
		if pick := core.ExpandSourceTo(nil, o.arcs, 0); !slices.Equal(pick, rows) {
			t.Fatalf("%s: the pick at s0 = %d differs from the row-by-row pick:\n got %v\nwant %v", cell, o.s0, pick, rows)
		}
		if o.arcs.Len() > 0 && o.arcs.Narrow() != src.Narrow() {
			t.Fatalf("%s: the pick at s0 = %d is not in the layout the cursor reads", cell, o.s0)
		}
		return n, ok
	}
	cur := core.NewTailCursor(tail)
	cur.Window(tile.Lo, tile.Hi)
	o.window(tile.Lo, tile.Hi)
	nT, nTail, rem := cur.NumVertices(), cur.Total(), Plan{Tail: tail}.Arcs(*tile)
	for ai := int(tile.Skip / nTail); ai < len(tile.AArcs) && rem > 0; ai++ {
		if ai == int(tile.Skip/nTail) {
			cur.SeekTo(tile.Skip % nTail)
		} else {
			cur.Reset()
		}
		a := tile.AArcs[ai]
		for rem > 0 {
			n, ok := step(cur, a.U*nT, a.V*nT, rem)
			if !ok {
				t.Fatalf("%s: the walk refused work", cell)
			}
			if n == 0 {
				break
			}
			rem -= n
		}
	}
	assertSameOrder(t, cell, got, want)
	if o.rows != picks {
		t.Fatalf("%s: OwnerRowsTested %d, want one count a pick, %d picks", cell, o.rows, picks)
	}
}

// serialWindows returns windows [lo, hi) of the chain's serial stream whose
// ends land, in turn, inside a row of the product, on a row boundary inside
// a sweep, on a sweep boundary, and inside the first and the last head arc
// — each kind where the stream has such a position in its first and in its
// last third.
func serialWindows(ch *core.Chain, arcs []graph.Edge) [][2]int {
	f := ch.Factors()
	sweep := int(f[len(f)-1].NumArcs()) // one pass over the innermost factor
	if len(f) == 1 {
		sweep = 1 // head × identity tail
	}
	if len(arcs) == 0 || sweep == 0 {
		return nil
	}
	perHead := len(arcs) / int(f[0].NumArcs())
	kinds := []func(i int) bool{
		func(i int) bool { return arcs[i-1].U == arcs[i].U },
		func(i int) bool { return arcs[i-1].U != arcs[i].U && i%sweep != 0 },
		func(i int) bool { return i%sweep == 0 },
	}
	find := func(from, to int, ok func(int) bool) int {
		for i := max(from, 1); i < to; i++ {
			if ok(i) {
				return i
			}
		}
		return -1
	}
	var out [][2]int
	for _, ok := range kinds {
		lo, hi := find(1, len(arcs)/3, ok), find(2*len(arcs)/3, len(arcs), ok)
		if lo > 0 && hi > 0 {
			out = append(out, [2]int{lo, hi})
		}
	}
	if perHead > 1 && len(arcs) > 2*perHead {
		out = append(out, [2]int{perHead / 2, len(arcs) - perHead/2})
	}
	return out
}

// assertOwnedCell holds one owner-side run to the per-edge reference and,
// where the cell has one (want, in stream order), to the serial oracle.
func assertOwnedCell(t *testing.T, cell string, got, ref *tileRecorder, st Stats, owner func(u int64) int, want []graph.Edge) {
	t.Helper()
	var total int64
	for rank := range ref.byTile {
		if !reflect.DeepEqual(got.byTile[rank], ref.byTile[rank]) {
			t.Fatalf("%s: rank %d's per-tile substreams differ from the reference:\n got %v\nwant %v", cell, rank, got.byTile[rank], ref.byTile[rank])
		}
		assertSameOrder(t, fmt.Sprintf("%s: rank %d multiset", cell, rank), sortedArcs(got.flat[rank]), sortedArcs(ref.flat[rank]))
		if n := int64(len(got.flat[rank])); st.PerRankStored[rank] != n || st.PerRankGenerated[rank] != n {
			t.Fatalf("%s: rank %d holds %d arcs, Stats say generated %d, stored %d", cell, rank, n, st.PerRankGenerated[rank], st.PerRankStored[rank])
		}
		total += int64(len(got.flat[rank]))
		for _, e := range got.flat[rank] {
			if to := owner(e.U); to != rank {
				t.Fatalf("%s: arc %v stored on rank %d, owner says %d", cell, e, rank, to)
			}
		}
		if want != nil {
			// Tiles are walked in ID order and a 1D plan's stream is the
			// serial stream: the rank holds the canonical-order subsequence.
			var sub []graph.Edge
			for _, e := range want {
				if owner(e.U) == rank {
					sub = append(sub, e)
				}
			}
			assertSameOrder(t, fmt.Sprintf("%s: rank %d against the serial oracle", cell, rank), got.flat[rank], sub)
		}
	}
	if st.EdgesGenerated != total || (want != nil && total != int64(len(want))) {
		t.Fatalf("%s: generated %d, stored %d, oracle has %d", cell, st.EdgesGenerated, total, len(want))
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("%s: leaked %d pooled buffers", cell, st.OutstandingBufs)
	}
}

// TestGenerateChainPerRankCanonicalOrder: under 1D and a source owner,
// Result.PerRank[ρ] is the canonical-order subsequence of the product's arcs
// that ρ owns — the same slice run after run.
func TestGenerateChainPerRankCanonicalOrder(t *testing.T) {
	ch := mustChain(gen.MustRMAT(gen.Graph500Params(4, 471)), gen.PrefAttach(7, 2, 472), gen.ER(4, 0.6, 473))
	const r = 5
	serial := referenceArcs(ch)
	for round := 0; round < 3; round++ {
		res, err := GenerateChain(ch, r, OwnerBySource, false)
		if err != nil {
			t.Fatal(err)
		}
		for rank, got := range res.PerRank {
			var want []graph.Edge
			for _, e := range serial {
				if OwnerBySource(e.U, e.V, r) == rank {
					want = append(want, e)
				}
			}
			assertSameOrder(t, fmt.Sprintf("round %d rank %d", round, rank), got, want)
		}
	}
}

// TestOwnerSideCounters: what placing cost shows in Stats — one count per
// pick, a pick per change of source base on every rank, under either owner;
// under OwnerBySource (an innermost factor of 7 vertices, its map padded to
// 8) the factor's arcs copied once per run into its classes, and under a
// BlockOwner nothing copied — and a recovering run books its one retry on
// the crashed rank.
func TestOwnerSideCounters(t *testing.T) {
	a, b := gen.PrefAttach(8, 2, 481), gen.ER(7, 0.5, 482)
	const r = 4
	plan, err := PlanChain1D(mustChain(a, b), r)
	if err != nil {
		t.Fatal(err)
	}
	// The source base of a sweep is its head arc's source row, and head arcs
	// come in CSR order through every tile: one pick per non-isolated head
	// vertex (a tile boundary inside a head row does not make a second).
	var bases int64
	for u := int64(0); u < a.NumVertices(); u++ {
		if a.Degree(u) > 0 {
			bases++
		}
	}
	for _, c := range []struct {
		owner  Owner
		copied int64
	}{
		{OwnerBySource, b.NumArcs()},
		{BlockOwner{NC: plan.NC}, 0},
	} {
		st, err := Run(context.Background(), Config{Plan: plan, Owner: c.owner, Sink: NewMemorySink(r)})
		if err != nil {
			t.Fatal(err)
		}
		if want := r * bases; st.OwnerRowsTested != want {
			t.Fatalf("%T: OwnerRowsTested = %d, want %d ranks × %d source bases = %d", c.owner, st.OwnerRowsTested, r, bases, want)
		}
		if st.ArcsCompacted != c.copied {
			t.Fatalf("%T: ArcsCompacted = %d, want %d", c.owner, st.ArcsCompacted, c.copied)
		}
	}

	rank, work := busiestOwner(mustProduct(t, a, b), OwnerBySource, plan)
	rs, err := Run(context.Background(), Config{
		Plan: plan, Owner: OwnerBySource, Sink: NewMemorySink(r),
		Faults:   &FaultPlan{Crashes: []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: work / 2}}},
		Recovery: Recovery{MaxRetries: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rs.RecoveredRuns != 1 || rs.RetriesPerRank[rank] != 1 {
		t.Fatalf("RecoveredRuns = %d, RetriesPerRank = %v; want 1 and the retry on rank %d", rs.RecoveredRuns, rs.RetriesPerRank, rank)
	}
}

// mustProduct is core.Product of fs, the serial reference.
func mustProduct(t *testing.T, fs ...*graph.Graph) *graph.Graph {
	t.Helper()
	g, err := core.Product(fs...)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// --- A process that dies while it generates ------------------------------

// ownedKillConfig is the shared shape of the owner-side death cluster,
// derived independently by the driver and its helper: the kill factors by
// source blocks, so that a rank's arcs come from a few tiles only.
func ownedKillConfig(dir string, r int) (Config, Plan, error) {
	cfg, plan, err := killTestConfig(dir, r)
	cfg.Owner = BlockOwner{NC: plan.NC}
	return cfg, plan, err
}

// exitAfterSink is a process that dies mid-generation: os.Exit inside the
// process's Nth StoreBlock, once its stdin has been closed — a driver that
// holds the pipe open until the surviving process has stored its whole
// share makes what recovery must replay exact; one that hands the child no
// stdin lets it die at once.
type exitAfterSink struct {
	Sink
	left atomic.Int64
}

func (s *exitAfterSink) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.Sink.Rank(rk)
	if err != nil {
		return nil, err
	}
	return &exitAfterRankSink{RankSink: rs, s: s}, nil
}

type exitAfterRankSink struct {
	RankSink
	s *exitAfterSink
}

func (t *exitAfterRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	if t.s.left.Add(-1) == 0 {
		io.Copy(io.Discard, os.Stdin)
		os.Exit(3)
	}
	return t.RankSink.(BlockStorer).StoreBlock(edges)
}

// sharesStoredSink calls done once every rank it hosts has stored the
// share it was told to expect.
type sharesStoredSink struct {
	Sink
	want    []int64 // per rank
	pending atomic.Int64
	done    func()
}

func (s *sharesStoredSink) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.Sink.Rank(rk)
	if err != nil {
		return nil, err
	}
	return &sharesStoredRankSink{RankSink: rs, s: s, left: s.want[rk.ID()]}, nil
}

type sharesStoredRankSink struct {
	RankSink
	s    *sharesStoredSink
	left int64
}

func (t *sharesStoredRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	n, err := t.RankSink.(BlockStorer).StoreBlock(edges)
	if t.left -= n; t.left == 0 && t.s.pending.Add(-1) == 0 {
		t.s.done()
	}
	return n, err
}

// TestClusterOwnedDeathRecovery is the crash-then-recover contract for a
// run that sends no batches, across a real process boundary: a two-process
// cluster under BlockOwner whose worker exits inside a StoreBlock — after
// the head's ranks have stored all they own, so the outcome is exact — and
// is respawned clean. The recovered store must hold exactly the serial
// product; only the tiles with arcs on the dead process's ranks replay
// (every rank walks them again: the head's ranks step over what they hold
// of them without expanding it, the respawned ranks store their share anew).
func TestClusterOwnedDeathRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const nprocs, r = 2, 4
	lns, addrs := clusterListeners(t, nprocs)
	dir := t.TempDir()
	cfg, plan, err := ownedKillConfig(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	a, b := killTestFactors()
	want := mustProduct(t, a, b)
	procs := transport.SplitRanks(addrs, r)
	dead := procs[1]

	// Closed form of what each rank stores of each tile, and from it what
	// recovery has to do.
	owner := placer(cfg.Owner, plan)
	share := make([]int64, r)
	var replayArcs, replayDup, headShare int64
	replayed, tiles := 0, 0
	for _, ts := range plan.Tiles {
		for _, tl := range ts {
			perRank := make([]int64, r)
			for _, ha := range tl.AArcs {
				for _, ba := range b.ArcSlice() {
					perRank[owner(ha.U*b.NumVertices()+ba.U)]++
				}
			}
			var onDead, onHead int64
			for rank, n := range perRank {
				share[rank] += n
				if rank >= dead.Lo && rank < dead.Hi {
					onDead += n
				} else {
					onHead += n
				}
			}
			tiles++
			headShare += onHead
			if onDead > 0 {
				replayed++
				replayArcs += plan.Arcs(tl)
				replayDup += onHead
			}
		}
	}
	if replayed == 0 || replayed == tiles {
		t.Fatalf("%d of %d tiles hold arcs of the dead process's ranks; the test needs some but not all", replayed, tiles)
	}

	node := tcp.NewNodeOn(lns[0], 0, PlanHash(plan))
	defer node.Close()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	spawn := func(exitAfter int) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestClusterHelperProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			envClusterHelper+"=1",
			envClusterAddrs+"="+strings.Join(addrs, ","),
			envClusterSelf+"=1",
			envClusterDir+"="+dir,
			envClusterOwned+"=1",
			envClusterKill+"="+strconv.Itoa(exitAfter),
		)
		return captureOutput(withListener(t, cmd, lns[1]))
	}
	victim := spawn(3)
	release, err := victim.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	defer release.Close()
	if err := start(victim); err != nil {
		t.Fatal(err)
	}
	exits := make(chan childExit, 1)
	respawnAfter(exits, "worker", victim, func() *exec.Cmd { return spawn(0) })

	hosted := &sharesStoredSink{Sink: cfg.Sink, want: share, done: func() { release.Close() }}
	for rank := procs[0].Lo; rank < procs[0].Hi; rank++ {
		if share[rank] > 0 {
			hosted.pending.Add(1)
		}
	}
	cfg.Sink = hosted
	var stats Stats
	awaitCluster(t, goHead(ctx, ClusterConfig{Procs: procs, Self: 0, Node: node}, cfg, &stats), exits, 1)

	if stats.RecoveredRuns != 1 || stats.TotalRetries() != 1 || stats.RetriesPerRank[dead.Lo] != 1 {
		t.Fatalf("RecoveredRuns = %d, RetriesPerRank = %v; want one recovering retry on rank %d",
			stats.RecoveredRuns, stats.RetriesPerRank, dead.Lo)
	}
	// Attempt 0: the head's ranks generated all they own (the victim's count
	// died with it). Attempt 1: every rank walked the replayed tiles, and the
	// head's ranks, which had stored their share of those, resumed past it
	// and generated none of it: every rank generated its share once.
	if got, want := stats.EdgesGenerated, headShare+replayArcs-replayDup; got != want {
		t.Fatalf("EdgesGenerated = %d, want %d: the head's share %d plus the dead ranks' %d arcs of the %d/%d tiles with arcs on ranks [%d,%d)",
			got, want, headShare, replayArcs-replayDup, replayed, tiles, dead.Lo, dead.Hi)
	}
	if !slices.Equal(stats.PerRankGenerated, share) || !slices.Equal(stats.PerRankStored, share) {
		t.Fatalf("per-rank generated %v, stored %v; want each rank's share %v once", stats.PerRankGenerated, stats.PerRankStored, share)
	}
	st, err := store.Recover(dir, plan.NC)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalEdges() != want.NumArcs() {
		t.Fatalf("recovered store holds %d arcs, want %d", st.TotalEdges(), want.NumArcs())
	}
	got, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("recovered cluster product differs from serial reference")
	}
}
