package dist

// Shipper-level tests of the router: the per-edge loop (route) against the
// per-edge reference (stage), over the same tiles, message for message; and
// the owner contract owner-side generation rests on: each source form agrees
// with its OwnerFunc twin, and exactly one OwnerFunc value has a source form.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// loopback is a Transport with one live rank: every batch that rank
// sends is handed straight back to it through the progress callback, as
// if a peer had sent the same batch the other way. That drives one
// shipper through its real flush, accounting and buffer-recycling paths
// (a rank in a balanced exchange receives about as many batches as it
// sends) with no peer goroutines — so a test sees every message in order
// and a benchmark times the router, not the scheduler. dest is the destination of the
// batch being handed back, for handlers that record per destination.
type loopback struct {
	r    int
	dest int
}

func (l *loopback) R() int              { return l.r }
func (l *loopback) Local() (lo, hi int) { return 0, l.r }
func (l *loopback) SendBatch(_ context.Context, b transport.Batch, progress func(transport.Batch)) error {
	l.dest = b.Dest
	progress(b)
	l.dest = b.From
	return nil
}
func (l *loopback) TryRecv(int) (transport.Batch, bool) { return transport.Batch{}, false }
func (l *loopback) Recv(context.Context, int) (transport.Batch, error) {
	return transport.Batch{}, errors.New("loopback: every batch was already delivered inside SendBatch")
}
func (l *loopback) Barrier(context.Context, int) error { return nil }
func (l *loopback) AllReduceSum(_ context.Context, _ int, v int64) (int64, error) {
	return v, nil
}
func (l *loopback) Reset(func(transport.Batch)) {}
func (l *loopback) Close() error                { return nil }

// loopbackRank returns rank 0 of an r-rank cluster over a loopback
// transport.
func loopbackRank(tb testing.TB, r int) (*Rank, *loopback) {
	tb.Helper()
	lb := &loopback{r: r}
	c, err := NewClusterOn(lb)
	if err != nil {
		tb.Fatal(err)
	}
	return &Rank{id: 0, c: c}, lb
}

// tileWork is one tile as the routers see it: head arcs and a cursor over
// the tail factors each of them is crossed with.
type tileWork struct {
	tile  int
	aArcs []graph.Edge
	tail  []*graph.Graph
	cur   *core.TailCursor
}

// splitTiles splits head's arcs evenly over the given number of tiles of
// head ⊗ tail.
func splitTiles(head *graph.Graph, tail []*graph.Graph, tiles int) []tileWork {
	var out []tileWork
	for tile, part := range PartitionArcs(head.ArcSlice(), tiles) {
		out = append(out, tileWork{tile, part, tail, core.NewTailCursor(tail)})
	}
	return out
}

// walkOwned drives one rank's owner-side walk over whole tiles the way the
// engine's walk.tiles does, with its own sweep and next.
func walkOwned(o *ownedRows, work []tileWork, emit func(tile int, block []graph.Edge) bool) bool {
	for _, w := range work {
		t := Tile{ID: w.tile, AArcs: w.aArcs, Tail: w.tail}
		nT := w.cur.NumVertices()
		rem := t.Arcs()
		for _, a := range w.aArcs {
			w.cur.Reset()
			for {
				n, ok := o.step(&t, w.cur, a.U*nT, a.V*nT, rem, emit)
				if !ok {
					return false
				}
				if n == 0 {
					break
				}
				rem -= n
			}
		}
	}
	return true
}

// routeStep is the engine's step (walk.tiles): generate and place up to
// max arcs from the cursor, report how many.
type routeStep func(s *shipper, tile int, cur *core.TailCursor, uBase, vBase int64, max int) (int, bool)

// walkTiles drives step over the tiles the way the engine's walk.tiles
// does: each head arc against the tail, ≤ chunk arcs a step.
func walkTiles(s *shipper, work []tileWork, chunk int, step routeStep) bool {
	for _, w := range work {
		cur := w.cur
		nT := cur.NumVertices()
		for _, a := range w.aArcs {
			cur.Reset()
			for {
				n, ok := step(s, w.tile, cur, a.U*nT, a.V*nT, chunk)
				if !ok {
					return false
				}
				if n == 0 {
					break
				}
			}
		}
	}
	return true
}

// viaBlock is a step that expands a block first and hands it to place —
// how route and the per-edge reference are fed. scratch is reused.
func viaBlock(scratch *[]graph.Edge, place func(s *shipper, tile int, block []graph.Edge) bool) routeStep {
	return func(s *shipper, tile int, cur *core.TailCursor, uBase, vBase int64, max int) (int, bool) {
		block := cur.ExpandNext(uBase, vBase, (*scratch)[:0], max)
		*scratch = block
		return len(block), place(s, tile, block)
	}
}

// stageEach is the per-edge reference: stage, one call per edge.
func stageEach(owner OwnerFunc) func(s *shipper, tile int, block []graph.Edge) bool {
	return func(s *shipper, tile int, block []graph.Edge) bool {
		for _, e := range block {
			if !s.stage(owner(e.U, e.V, s.c.r), tile, e) {
				return false
			}
		}
		return true
	}
}

// sentMsg is one delivered batch as the handler saw it.
type sentMsg struct {
	tile  int
	edges []graph.Edge
}

// routeAll runs one exchange on a loopback rank, walking the tiles with
// step, and returns the message sequence per destination plus the traffic
// counters.
func routeAll(t *testing.T, r, batch int, work []tileWork, chunk int, step routeStep) ([][]sentMsg, Stats) {
	t.Helper()
	rk, lb := loopbackRank(t, r)
	got := make([][]sentMsg, r)
	err := rk.exchangeBlocks(batch, func(s *shipper) {
		if !walkTiles(s, work, chunk, step) {
			t.Error("router refused work on a healthy run")
		}
	}, func(tile int, edges []graph.Edge) {
		got[lb.dest] = append(got[lb.dest], sentMsg{tile, append([]graph.Edge(nil), edges...)})
	})
	if err != nil {
		t.Fatal(err)
	}
	st := rk.c.Stats()
	if st.OutstandingBufs != 0 {
		t.Fatalf("exchange leaked %d pooled buffers", st.OutstandingBufs)
	}
	return got, st
}

// TestRouteRunsEquivalence holds the per-edge loop to the per-edge
// reference: over the same tiles, the same messages — tile, length and
// edges, in order, per destination — and the same counters. Each shape
// spans two tiles and is walked 7 and 64 arcs a step, so rows are cut by
// step ends as well as by batches that do (1) and do not (3, 5, 7, 64,
// 1024) divide them; the k = 3 shape puts an odometer step between the rows
// and gives the innermost factor isolated vertices. (The owners are the
// source maps' OwnerFunc twins, OwnerBySource and OwnerByBlock: what they
// place where is also the reference owner-side generation is held to, in
// owned_test.go.)
func TestRouteRunsEquivalence(t *testing.T) {
	a := gen.MustRMAT(gen.Graph500Params(4, 431))
	b := gen.MustRMAT(gen.Graph500Params(5, 432))
	head, mid := gen.MustRMAT(gen.Graph500Params(3, 433)), gen.MustRMAT(gen.Graph500Params(2, 434))
	// a on the even vertices of twice as many: every other CSR row empty.
	var spread []graph.Edge
	for _, e := range a.ArcSlice() {
		spread = append(spread, graph.Edge{U: 2 * e.U, V: 2 * e.V})
	}
	gappy, err := graph.New(2*a.NumVertices(), spread)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct {
		name string
		work []tileWork
		nC   int64
	}{
		{"", splitTiles(a, []*graph.Graph{b}, 2), a.NumVertices() * b.NumVertices()},
		{"k3_", splitTiles(head, []*graph.Graph{mid, gappy}, 2), head.NumVertices() * mid.NumVertices() * gappy.NumVertices()},
	}
	for _, sh := range shapes {
		owners := []struct {
			name  string
			owner OwnerFunc
		}{
			{"bySource", OwnerBySource},
			{"blockBound", OwnerByBlock(sh.nC)},
		}
		for _, chunk := range []int{7, 64} {
			for _, o := range owners {
				for _, r := range []int{1, 2, 3, 16} {
					for _, batch := range []int{1, 3, 5, 7, 64, DefaultBatchSize} {
						t.Run(fmt.Sprintf("%s%s_chunk%d_r%d_batch%d", sh.name, o.name, chunk, r, batch), func(t *testing.T) {
							var scratch []graph.Edge
							want, wantSt := routeAll(t, r, batch, sh.work, chunk, viaBlock(&scratch, stageEach(o.owner)))
							got, gotSt := routeAll(t, r, batch, sh.work, chunk, viaBlock(&scratch, func(s *shipper, tile int, block []graph.Edge) bool {
								return s.route(tile, block, o.owner)
							}))
							if !reflect.DeepEqual(got, want) {
								t.Fatal("route: per-destination message sequences differ from the per-edge reference")
							}
							if gotSt.Messages != wantSt.Messages || gotSt.EdgesRouted != wantSt.EdgesRouted || gotSt.BytesSent != wantSt.BytesSent {
								t.Fatalf("route: messages/routed/bytes = %d/%d/%d, reference %d/%d/%d",
									gotSt.Messages, gotSt.EdgesRouted, gotSt.BytesSent,
									wantSt.Messages, wantSt.EdgesRouted, wantSt.BytesSent)
							}
						})
					}
				}
			}
		}
	}
}

// TestSourceOwnerContract checks that each source map in the package names
// the rank its OwnerFunc twin does, whatever the target: BlockOwner{nC} and
// OwnerByBlock(nC), and OwnerBySource's source form and OwnerBySource
// itself — the twins bench's owned-over-routed ratio compares.
func TestSourceOwnerContract(t *testing.T) {
	const nC = int64(1) << 20
	twins := []struct {
		name     string
		bySource Owner
		byEdge   OwnerFunc
	}{
		{"block", BlockOwner{NC: nC}, OwnerByBlock(nC)},
		{"hash", OwnerBySource, OwnerBySource},
	}
	rng := rand.New(rand.NewSource(441))
	for _, tw := range twins {
		for r := 1; r <= 64; r++ {
			bySource := tw.bySource.BindSource(r)
			for i := 0; i < 500; i++ {
				u, v := rng.Int63n(nC), rng.Int63n(nC)
				if s, e := bySource(u), tw.byEdge(u, v, r); s != e || s < 0 || s >= r {
					t.Fatalf("%s r=%d (%d,%d): the source form says %d, the OwnerFunc %d", tw.name, r, u, v, s, e)
				}
			}
		}
	}
}

// TestOwnerBySourceRecognition pins recognition to exactly one value:
// the package's OwnerBySource has a source form that agrees with calling
// it; a closure with the same body and an OwnerByBlock closure — both
// functions of the source alone, but opaque — have none, and a run routed
// by them still places every arc where the function says.
func TestOwnerBySourceRecognition(t *testing.T) {
	if OwnerBySource.BindSource(1) == nil {
		t.Fatal("OwnerBySource was not recognised as source-keyed")
	}
	rng := rand.New(rand.NewSource(442))
	for _, r := range []int{1, 2, 3, 7, 16} {
		bySource := OwnerBySource.BindSource(r)
		for i := 0; i < 2000; i++ {
			u, v := rng.Int63(), rng.Int63()
			if got, want := bySource(u), OwnerBySource(u, v, r); got != want {
				t.Fatalf("r=%d u=%d: recognised form says %d, OwnerBySource says %d", r, u, got, want)
			}
		}
	}

	ch := mustChain(gen.ER(7, 0.5, 443), gen.PrefAttach(6, 2, 444))
	const r = 3
	want := sortedArcs(referenceArcs(ch))
	opaque := map[string]OwnerFunc{
		"sameBody": func(u, _ int64, r int) int {
			hi, _ := bits.Mul64(uint64(u)*0x9e3779b97f4a7c15, uint64(r))
			return int(hi)
		},
		"byBlock": OwnerByBlock(ch.NumVertices()),
		"byEdge":  OwnerByEdge,
	}
	for name, f := range opaque {
		if f.BindSource(r) != nil {
			t.Fatalf("%s: an opaque OwnerFunc was taken for source-keyed", name)
		}
		res, err := GenerateChain(ch, r, f, false)
		if err != nil {
			t.Fatal(err)
		}
		ms := &MemorySink{PerRank: res.PerRank}
		assertSameOrder(t, name, sortedArcs(mergedArcs(ms)), want)
		assertPlacement(t, ms, f)
	}
}

// targetOwner answers BindSource with nil, so it claims to read the target,
// but it is not an OwnerFunc: the router would have nothing to call.
type targetOwner struct{}

func (targetOwner) BindSource(int) func(u int64) int { return nil }

// TestRunRefusesOwnerWithoutForm: an owner without a source form must be an
// OwnerFunc; any other type is refused, by name, before anything runs.
func TestRunRefusesOwnerWithoutForm(t *testing.T) {
	plan, err := PlanChain1D(mustChain(gen.ER(5, 0.5, 445)), 2)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(context.Background(), Config{Plan: plan, Owner: targetOwner{}, Sink: &CountSink{}})
	if err == nil || !strings.Contains(err.Error(), "targetOwner") {
		t.Fatalf("Run with a %T returned %v, want an error naming the type", targetOwner{}, err)
	}
}

// TestOwnerMapsBalance holds both hashed owner maps to an even split on
// R-MAT products, whose vertex ids are the adversarial input: every bit of
// one is 0 with probability a+b = 0.76, so a map that keeps low bits (the
// remainder of a hash, as both maps were) piles 0.76^log₂r of the arcs on
// rank 0 — max/ideal read 1.4–3.2 by source and up to 1.33 by edge on these
// chains. Loads by source are the closed form generateChain sizes buffers
// from, held to enumeration wherever the chain is small enough to enumerate;
// RMAT(6)³ is 4.7e8 arcs, so by edge a smaller cube stands in for it.
func TestOwnerMapsBalance(t *testing.T) {
	rs := []int{2, 3, 4, 16}
	for _, c := range []struct {
		scales    []int
		enumerate bool
	}{{[]int{7, 7}, true}, {[]int{6, 6, 6}, false}, {[]int{4, 4, 4}, true}} {
		gs := make([]*graph.Graph, len(c.scales))
		for i, scale := range c.scales {
			gs[i] = gen.MustRMAT(gen.Graph500Params(scale, int64(451+i)))
		}
		ch := mustChain(gs...)
		arcs, err := ch.NumArcs()
		if err != nil {
			t.Fatal(err)
		}
		bySource, byEdge := make([][]int64, len(rs)), make([][]int64, len(rs))
		for i, r := range rs {
			bySource[i], byEdge[i] = make([]int64, r), make([]int64, r)
		}
		if c.enumerate {
			ch.Arcs(func(u, v int64) bool {
				for i, r := range rs {
					bySource[i][OwnerBySource(u, v, r)]++
					byEdge[i][OwnerByEdge(u, v, r)]++
				}
				return true
			})
		}
		for i, r := range rs {
			check := func(name string, loads []int64) {
				if skew := float64(maxOf(loads)) * float64(r) / float64(arcs); skew > 1.05 {
					t.Errorf("RMAT%v r=%d %s: busiest rank stores %.3f × ideal, want ≤ 1.05 (loads %v)", c.scales, r, name, skew, loads)
				}
			}
			loads := chainSourceHashLoads(ch, r)
			check("OwnerBySource", loads)
			if c.enumerate {
				if !slices.Equal(loads, bySource[i]) {
					t.Fatalf("RMAT%v r=%d: closed-form loads %v, enumerated %v", c.scales, r, loads, bySource[i])
				}
				check("OwnerByEdge", byEdge[i])
			}
		}
	}
}

// TestOwnerMapsRange: both hashed maps answer in [0, r) for every r ≥ 1 and
// every source an int64 holds — the high-word reduction needs no power of
// two and no headroom — and the source map's three spellings (the store's
// shard map, the OwnerFunc, its source form) are one function.
func TestOwnerMapsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(454))
	ends := []int64{0, 1, 1<<31 - 1, 1 << 32, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	for _, r := range []int{1, 2, 3, 7, 16, 9999} {
		bound := OwnerBySource.BindSource(r)
		for i := 0; i < 2000+len(ends); i++ {
			u, v := rng.Int63(), rng.Int63()
			if i < len(ends) {
				u = ends[i]
			}
			s := store.BySource(u, v, r)
			if s < 0 || s >= r || OwnerBySource(u, v, r) != s || bound(u) != s {
				t.Fatalf("r=%d u=%d: store.BySource %d, OwnerBySource %d, BindSource %d, want one value in [0,%d)",
					r, u, s, OwnerBySource(u, v, r), bound(u), r)
			}
			if e := OwnerByEdge(u, v, r); e < 0 || e >= r {
				t.Fatalf("r=%d (%d,%d): OwnerByEdge = %d, out of [0,%d)", r, u, v, e, r)
			}
		}
	}
}

// TestGenerateChainNamedDefaultOwner checks that naming the default owner
// costs nothing: GenerateChain(…, OwnerBySource, …) sizes every rank's
// buffer exactly, as GenerateChain(…, nil, …) does, and stores the same
// arcs on the same ranks.
func TestGenerateChainNamedDefaultOwner(t *testing.T) {
	ch := mustChain(gen.MustRMAT(gen.Graph500Params(5, 445)), gen.MustRMAT(gen.Graph500Params(4, 446)))
	const r = 4
	byNil, err := GenerateChain(ch, r, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	byName, err := GenerateChain(ch, r, OwnerBySource, false)
	if err != nil {
		t.Fatal(err)
	}
	for rank := range byNil.PerRank {
		assertSameOrder(t, fmt.Sprintf("rank %d", rank), sortedArcs(byName.PerRank[rank]), sortedArcs(byNil.PerRank[rank]))
		if n, c := len(byName.PerRank[rank]), cap(byName.PerRank[rank]); c != n {
			t.Fatalf("rank %d: %d arcs in a buffer of %d — the exact per-rank hint was not applied", rank, n, c)
		}
	}
}

// callRecorder is a sink that logs every block each rank is handed, call
// by call.
type callRecorder struct{ calls [][]sentMsg }

func (s *callRecorder) Rank(rk *Rank) (RankSink, error) {
	return &callRecorderRank{s: s, id: rk.ID()}, nil
}

type callRecorderRank struct {
	s  *callRecorder
	id int
}

func (t *callRecorderRank) Store(graph.Edge) error {
	return errors.New("callRecorder wants tile-framed blocks")
}

func (t *callRecorderRank) StoreTileBlock(tile int, edges []graph.Edge) (int64, error) {
	t.s.calls[t.id] = append(t.s.calls[t.id], sentMsg{tile, slices.Clone(edges)})
	return int64(len(edges)), nil
}

func (t *callRecorderRank) Close() error { return nil }

// TestFaultArmedRunMatchesCleanRun: a fault-armed run walks the clean run's
// blocks. Up to a mid-expansion crash the victim's sink is handed exactly
// the calls a clean run hands it, the block that crosses the crash as its
// prefix, and PerRankGenerated[victim] is the schedule's After — for every
// placement (no owner, the two source owners, and OwnerByEdge at R = 1,
// where the victim's sink gets only what it routed itself: there the arcs
// staged toward a batch that had not filled die with the rank), at batch
// sizes 1, 5 and 1024, with After at 0, inside a block, on a block
// boundary, on the last arc and past the total (no crash, every call). A
// Repeat spec with a retry crashes the replay at its first block, and the
// victim is handed nothing more.
func TestFaultArmedRunMatchesCleanRun(t *testing.T) {
	ch := mustChain(gen.ER(7, 0.5, 447), gen.PrefAttach(6, 2, 448))
	owners := []struct {
		name  string
		owner Owner
		r     int
	}{
		{"nil", nil, 2},
		{"bySource", OwnerBySource, 2},
		{"block", BlockOwner{NC: ch.NumVertices()}, 2},
		{"byEdge", OwnerByEdge, 1},
	}
	for _, o := range owners {
		plan, err := PlanChain1D(ch, o.r)
		if err != nil {
			t.Fatal(err)
		}
		victim, routed := o.r-1, o.owner != nil && o.owner.BindSource(o.r) == nil
		for _, batch := range []int{1, 5, DefaultBatchSize} {
			run := func(faults *FaultPlan, retries int) ([]sentMsg, Stats, error) {
				rec := &callRecorder{calls: make([][]sentMsg, o.r)}
				var st Stats
				err := runWithWatchdog(t, chaosWatchdog, func() (err error) {
					st, err = Run(context.Background(), Config{Plan: plan, Owner: o.owner, Sink: rec, BatchSize: batch,
						Faults: faults, Recovery: Recovery{MaxRetries: retries}})
					return err
				})
				return rec.calls[victim], st, err
			}
			clean, _, err := run(nil, 0)
			if err != nil {
				t.Fatalf("%s batch=%d: clean run: %v", o.name, batch, err)
			}
			// ends[i] is the arcs handed over by the end of clean call i.
			ends := make([]int64, len(clean))
			var total int64
			for i, m := range clean {
				total += int64(len(m.edges))
				ends[i] = total
			}
			afters := map[string]int64{"zero": 0, "lastArc": total - 1, "pastTotal": total + 3}
			if len(clean) > 1 {
				afters["boundary"] = ends[len(clean)/2-1]
			}
			for i := len(clean) / 2; i < len(clean); i++ {
				if len(clean[i].edges) > 1 {
					afters["midBlock"] = ends[i] - int64(len(clean[i].edges)) + 1
					break
				}
			}
			for name, after := range afters {
				for _, repeat := range []bool{false, true} {
					if repeat && (batch != 5 || name != "midBlock") {
						continue
					}
					cell := fmt.Sprintf("%s batch=%d after=%s(%d) repeat=%v", o.name, batch, name, after, repeat)
					spec := CrashSpec{Rank: victim, Point: FaultMidExpansion, After: after, Repeat: repeat}
					retries := 0
					if repeat {
						retries = 1
					}
					got, st, err := run(&FaultPlan{Seed: 449, Crashes: []CrashSpec{spec}}, retries)
					// The clean calls up to After arcs, the one that crosses it cut
					// to its prefix — or, routed, dropped whole.
					var want []sentMsg
					for i, m := range clean {
						if ends[i] <= after {
							want = append(want, m)
						} else if start := ends[i] - int64(len(m.edges)); start < after && !routed {
							want = append(want, sentMsg{m.tile, m.edges[:after-start]})
						}
					}
					if after >= total {
						if err != nil {
							t.Fatalf("%s: a crash scheduled past the rank's %d arcs fired: %v", cell, total, err)
						}
					} else if ce := (*RankCrashError)(nil); !errors.As(err, &ce) || ce.Rank != victim || ce.Point != FaultMidExpansion {
						t.Fatalf("%s: want the injected mid-expansion crash of rank %d, got %v", cell, victim, err)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: the victim's sink calls differ from the clean run's up to the crash:\n got %v\nwant %v", cell, got, want)
					}
					if g := st.PerRankGenerated[victim]; g != min(after, total) {
						t.Fatalf("%s: rank %d generated %d arcs, the schedule lets %d through", cell, victim, g, min(after, total))
					}
				}
			}
		}
	}
}
