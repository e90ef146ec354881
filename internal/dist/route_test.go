package dist

// Placing by owner and the contract it rests on: each rank's owner-side
// walk against the per-edge reference, the source maps and what they
// answer, exactly one OwnerFunc value with a source form, every other owner
// refused before anything runs, and a fault-armed run walking the clean
// run's blocks.

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
	"sync/atomic"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// tileWork is one tile as BenchmarkRoute and TestRouteRunsEquivalence walk
// it: head arcs and a cursor over the tail factors each of them is crossed
// with.
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

// workPlan is work, whose tiles share one tail, as a plan of r ranks, its
// tiles on rank 0: what an owner is bound to for a walk of work (placer).
func workPlan(work []tileWork, r int) Plan {
	tiles := make([][]Tile, r)
	for _, w := range work {
		tiles[0] = append(tiles[0], w.plan())
	}
	return Plan{R: r, Tail: work[0].tail, Tiles: tiles}
}

// plan is w as a plan's tile, over the whole of its first tail factor.
func (w tileWork) plan() Tile {
	return Tile{ID: w.tile, AArcs: w.aArcs, Hi: int(w.tail[0].NumArcs())}
}

// walkOwned drives one rank's owner-side walk over whole tiles the way the
// engine's walk.tiles does, a sweep at a time (step).
func walkOwned(o *walk, work []tileWork, emit func(tile int, block []uint64, u0, v0 int64) bool) bool {
	for _, w := range work {
		t := w.plan()
		o.own.window(t.Lo, t.Hi)
		nT := w.cur.NumVertices()
		rem := Plan{Tail: w.tail}.Arcs(t)
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

// placedArcs is one rank's share of a walk: each arc and its tile, in order.
type placedArcs struct {
	tiles []int
	arcs  []graph.Edge
}

// placedBy walks w over work (walkOwned) and returns what it emitted, each
// block widened to edges with its base, holding every block to 1 to batch
// arcs.
func placedBy(t *testing.T, w *walk, work []tileWork) placedArcs {
	t.Helper()
	var got placedArcs
	walkOwned(w, work, func(tile int, block []uint64, u0, v0 int64) bool {
		if len(block) == 0 || len(block) > w.batch {
			t.Fatalf("rank %d: a block of %d arcs, want 1 to %d", w.own.rank, len(block), w.batch)
		}
		got.arcs = core.ExpandPacked(got.arcs, block, u0, v0)
		for range block {
			got.tiles = append(got.tiles, tile)
		}
		return true
	})
	return got
}

// TestRouteRunsEquivalence holds owner-side placement to the per-edge
// reference over the same tiles: every one of R ranks walks every tile with
// its own ownedRows (walkOwned, as walk.tiles does), in packed blocks
// (each widened with its base for the comparison), and what each rank is
// handed — tile and arc, in order — must be each tile's stream, expanded by
// core.TailCursor.ExpandNextPacked chunk arcs a step (each block widened
// with its base), filtered arc by arc by the
// owner map, with every block 1 to batch arcs long. Each shape spans two
// tiles and is expanded 7 and 64 arcs a step, at batches that do (1) and do
// not (3, 5, 7, 64, 1024) divide its rows; the k = 3 shape puts an odometer
// step between the rows and gives the innermost factor isolated vertices.
// The owners are the package's two source maps, OwnerBySource — whose
// ranks share one set of class partitions, as an attempt's do, and look
// their picks up — and OwnerByBlock, whose ranks pick a range. (The test is named for the per-edge exchange's router, which
// it held to the same reference until placing moved to the owner.)
func TestRouteRunsEquivalence(t *testing.T) {
	a := gen.MustRMAT(gen.Graph500Params(4, 431))
	b := gen.MustRMAT(gen.Graph500Params(5, 432))
	head, mid := gen.MustRMAT(gen.Graph500Params(3, 433)), gen.MustRMAT(gen.Graph500Params(2, 434))
	gappy := evens(a) // every other CSR row empty
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
			owner Owner
		}{
			{"bySource", OwnerBySource},
			{"blockBound", OwnerByBlock(sh.nC)},
		}
		for _, chunk := range []int{7, 64} {
			for _, o := range owners {
				for _, r := range []int{1, 2, 3, 16} {
					owner := placer(o.owner, workPlan(sh.work, r))
					place := newPlacing(o.owner, owner, r, sh.work[0].tail)
					want := make([]placedArcs, r)
					var words []uint64
					var scratch []graph.Edge
					for _, w := range sh.work {
						nT := w.cur.NumVertices()
						for _, e := range w.aArcs {
							w.cur.Reset()
							for {
								var u0, v0 int64
								if words, u0, v0 = w.cur.ExpandNextPacked(words[:0], chunk); len(words) == 0 {
									break
								}
								scratch = core.ExpandPacked(scratch[:0], words, e.U*nT+u0, e.V*nT+v0)
								for _, arc := range scratch {
									p := &want[owner(arc.U)]
									p.tiles, p.arcs = append(p.tiles, w.tile), append(p.arcs, arc)
								}
							}
						}
					}
					for _, batch := range []int{1, 3, 5, 7, 64, DefaultBatchSize} {
						t.Run(fmt.Sprintf("%s%s_chunk%d_r%d_batch%d", sh.name, o.name, chunk, r, batch), func(t *testing.T) {
							for rank := range want {
								if got := placedBy(t, ownedWalk(place.rows(rank, batch)), sh.work); !reflect.DeepEqual(got, want[rank]) {
									t.Fatalf("rank %d: %d arcs placed, the per-edge reference %d; the sequences differ", rank, len(got.arcs), len(want[rank].arcs))
								}
							}
						})
					}
				}
			}
		}
	}
}

// sameBody is OwnerBySource's map as a function of its own.
func sameBody(u, v int64, r int) int { return store.BySource(u, v, r) }

// byEdgeHash is the retired OwnerByEdge: a map of both endpoints.
func byEdgeHash(u, v int64, r int) int {
	h := uint64(u)*0x9e3779b97f4a7c15 ^ (uint64(v)*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9)
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	hi, _ := bits.Mul64(h, uint64(r))
	return int(hi)
}

// TestSourceOwnerContract: the source form of each source map in the
// package answers in [0, r) at every r and every innermost factor size —
// OwnerBySource's what store.SourceMap of that size answers, which is what
// calling OwnerBySource answers, whatever the target, where the size is a
// power of two. (TestBlockOwnerFormsAgree holds OwnerByBlock to
// BlockOwner.)
func TestSourceOwnerContract(t *testing.T) {
	const nC = int64(1) << 20
	rng := rand.New(rand.NewSource(441))
	for _, o := range []Owner{BlockOwner{NC: nC}, OwnerBySource} {
		for _, nL := range []int64{1 << 10, 1000} {
			for r := 1; r <= 64; r++ {
				bySource := o.BindSource(r, nL)
				for i := 0; i < 500; i++ {
					u, v := rng.Int63n(nC), rng.Int63n(nC)
					s := bySource(u)
					f, ok := o.(OwnerFunc)
					if s < 0 || s >= r || ok && store.SourceMap(nL)(u, v, r) != s || ok && nL == 1<<10 && f(u, v, r) != s {
						t.Fatalf("%T nL=%d r=%d (%d,%d): the source form says %d", o, nL, r, u, v, s)
					}
				}
			}
		}
	}
}

// TestOwnerBySourceRecognition pins recognition to exactly one value: the
// package's OwnerBySource has a source form that agrees with calling it; a
// closure with the same body, a map of both endpoints and a nil OwnerFunc
// have none (and so are refused: TestRunRefusesOwnerWithoutForm).
func TestOwnerBySourceRecognition(t *testing.T) {
	if OwnerBySource.BindSource(1, 1) == nil {
		t.Fatal("OwnerBySource was not recognised as source-keyed")
	}
	rng := rand.New(rand.NewSource(442))
	for _, r := range []int{1, 2, 3, 7, 16} {
		bySource := OwnerBySource.BindSource(r, 1<<20) // a power of two: the padding is the identity
		for i := 0; i < 2000; i++ {
			u, v := rng.Int63(), rng.Int63()
			if got, want := bySource(u), OwnerBySource(u, v, r); got != want {
				t.Fatalf("r=%d u=%d: recognised form says %d, OwnerBySource says %d", r, u, got, want)
			}
		}
	}
	var typedNil OwnerFunc
	for name, f := range map[string]OwnerFunc{"sameBody": sameBody, "byEdge": byEdgeHash, "nil": typedNil} {
		if f.BindSource(3, 1) != nil {
			t.Fatalf("%s: an opaque OwnerFunc was taken for source-keyed", name)
		}
	}
}

// targetOwner answers BindSource with nil: it claims to read the target.
type targetOwner struct{}

func (targetOwner) BindSource(int, int64) func(u int64) int { return nil }

// rankZero is a custom owner whose source form works — every source on
// rank 0 — and which the engine refuses by its type all the same: it
// places by OwnerBySource and BlockOwner alone.
type rankZero struct{}

func (rankZero) BindSource(int, int64) func(u int64) int { return func(int64) int { return 0 } }

// rankCalls is a CountSink that counts its Rank calls.
type rankCalls struct {
	CountSink
	n atomic.Int64
}

func (s *rankCalls) Rank(rk *Rank) (RankSink, error) {
	s.n.Add(1)
	return s.CountSink.Rank(rk)
}

// TestRunRefusesOwnerWithoutForm: any owner but OwnerBySource and a
// BlockOwner with blocks — a nil OwnerFunc, a closure with OwnerBySource's
// body, a map of both endpoints, a BlockOwner with no blocks (NC < 1), a
// type that answers BindSource with nil, and a named type whose source
// form works — is refused by name before a sink is opened, by Run, by a
// one-process RunCluster with a run ledger and by GenerateChain.
func TestRunRefusesOwnerWithoutForm(t *testing.T) {
	ch := mustChain(gen.ER(5, 0.5, 445))
	const r = 2
	plan, err := PlanChain1D(ch, r)
	if err != nil {
		t.Fatal(err)
	}
	var typedNil OwnerFunc
	owners := map[string]Owner{
		"typedNil":    typedNil,
		"sameBody":    OwnerFunc(sameBody),
		"byEdge":      OwnerFunc(byEdgeHash),
		"targetOwner": targetOwner{},
		"rankZero":    rankZero{},
		// No blocks: a block size of 0 divided the first pick by zero.
		"zeroBlock":     BlockOwner{},
		"negativeBlock": BlockOwner{NC: -1},
	}
	paths := map[string]func(Owner, Sink) error{
		"Run": func(o Owner, s Sink) error {
			_, err := Run(context.Background(), Config{Plan: plan, Owner: o, Sink: s})
			return err
		},
		"RunClusterLedger": func(o Owner, s Sink) error {
			cc := ClusterConfig{Procs: []transport.Proc{{Hi: r}}, LedgerPath: t.TempDir() + "/ledger"}
			_, err := RunCluster(context.Background(), cc, Config{Plan: plan, Owner: o, Sink: s})
			return err
		},
		"GenerateChain": func(o Owner, _ Sink) error {
			_, err := GenerateChain(ch, r, o, false)
			return err
		},
	}
	for oname, o := range owners {
		for pname, run := range paths {
			sink := &rankCalls{}
			err := run(o, sink)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%T", o)) {
				t.Errorf("%s with %s: got %v, want an error naming %T", pname, oname, err, o)
			}
			if n := sink.n.Load(); n != 0 {
				t.Errorf("%s with %s: the sink was asked for %d ranks before the refusal", pname, oname, n)
			}
		}
	}
}

// TestOwnerMapsBalance holds the source hash to an even split on R-MAT
// products, whose vertex ids are the adversarial input: every bit of one is
// 0 with probability a+b = 0.76, so a map that keeps low bits (the remainder
// of a hash, as the map was) piles 0.76^log₂r of the arcs on rank 0 —
// max/ideal read 1.4–3.2 on these chains. The loads are the closed form
// GenerateChain sizes buffers from, held to enumeration wherever the chain
// is small enough to enumerate (RMAT(6)³ is 4.7e8 arcs).
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
		bySource := make([][]int64, len(rs))
		for i, r := range rs {
			bySource[i] = make([]int64, r)
		}
		if c.enumerate {
			ch.Arcs(func(u, v int64) bool {
				for i, r := range rs {
					bySource[i][OwnerBySource(u, v, r)]++
				}
				return true
			})
		}
		for i, r := range rs {
			loads := chainSourceHashLoads(ch, r)
			if skew := float64(maxOf(loads)) * float64(r) / float64(arcs); skew > 1.05 {
				t.Errorf("RMAT%v r=%d: busiest rank stores %.3f × ideal, want ≤ 1.05 (loads %v)", c.scales, r, skew, loads)
			}
			if c.enumerate && !slices.Equal(loads, bySource[i]) {
				t.Fatalf("RMAT%v r=%d: closed-form loads %v, enumerated %v", c.scales, r, loads, bySource[i])
			}
		}
	}
}

// TestOwnerMapsRange: the source hash answers in [0, r) for every r ≥ 1 and
// every source an int64 holds — the high-word reduction needs no power of
// two and no headroom — and its three spellings (the store's shard map, the
// OwnerFunc, its source form) are one function.
func TestOwnerMapsRange(t *testing.T) {
	rng := rand.New(rand.NewSource(454))
	ends := []int64{0, 1, 1<<31 - 1, 1 << 32, 1 << 62, math.MaxInt64 - 1, math.MaxInt64}
	for _, r := range []int{1, 2, 3, 7, 16, 9999} {
		bound := OwnerBySource.BindSource(r, 1) // no padding: the map itself
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

// sinkCall is one block a sink was handed: its tile and a copy of its arcs.
type sinkCall struct {
	tile  int
	edges []graph.Edge
}

// callRecorder is a sink that logs every block each rank is handed, call
// by call.
type callRecorder struct{ calls [][]sinkCall }

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
	t.s.calls[t.id] = append(t.s.calls[t.id], sinkCall{tile, slices.Clone(edges)})
	return int64(len(edges)), nil
}

func (t *callRecorderRank) Close() error { return nil }

// TestFaultArmedRunMatchesCleanRun: a fault-armed run walks the clean run's
// blocks. Up to a mid-expansion crash the victim's sink is handed exactly
// the calls a clean run hands it, the block that crosses the crash as its
// prefix, and PerRankGenerated[victim] is the schedule's After — for every
// placement (no owner and the two source owners), at batch sizes 1, 5 and
// 1024, with After at 0, inside a block, on a block
// boundary, on the last arc and past the total (no crash, every call). A
// Repeat spec with a retry crashes the replay at its first block, and the
// victim is handed nothing more.
func TestFaultArmedRunMatchesCleanRun(t *testing.T) {
	ch := mustChain(gen.ER(7, 0.5, 447), gen.PrefAttach(6, 2, 448))
	owners := []struct {
		name  string
		owner Owner
	}{
		{"nil", nil},
		{"bySource", OwnerBySource},
		{"block", BlockOwner{NC: ch.NumVertices()}},
	}
	const r, victim = 2, 1
	plan, err := PlanChain1D(ch, r)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range owners {
		for _, batch := range []int{1, 5, DefaultBatchSize} {
			run := func(faults *FaultPlan, retries int) ([]sinkCall, Stats, error) {
				rec := &callRecorder{calls: make([][]sinkCall, r)}
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
					got, st, err := run(&FaultPlan{Crashes: []CrashSpec{spec}}, retries)
					// The clean calls up to After arcs, the one that crosses it cut
					// to its prefix.
					var want []sinkCall
					for i, m := range clean {
						if ends[i] <= after {
							want = append(want, m)
						} else if start := ends[i] - int64(len(m.edges)); start < after {
							want = append(want, sinkCall{m.tile, m.edges[:after-start]})
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
