package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func TestPlanValidation(t *testing.T) {
	a := gen.Ring(4)
	if _, err := PlanChain1D(mustChain(a, a), 0); err == nil {
		t.Error("PlanChain1D with 0 ranks should error")
	}
	if _, err := PlanChain2D(mustChain(a, a), -3); err == nil {
		t.Error("PlanChain2D with negative ranks should error")
	}
	p, err := PlanChain2D(mustChain(a, a), 6)
	if err != nil {
		t.Fatal(err)
	}
	if p.R != 6 || p.NC != 16 {
		t.Errorf("PlanChain2D r=6: R=%d NC=%d", p.R, p.NC)
	}
	// Every tile of the grid is assigned to exactly one rank.
	var tiles int
	for _, ts := range p.Tiles {
		tiles += len(ts)
	}
	if grid := NewGrid2D(6); tiles != grid.Tiles() {
		t.Errorf("plan assigns %d tiles, grid has %d", tiles, grid.Tiles())
	}
}

// TestRunRefusesUnwalkablePlan: a hand-built plan may name any range of the
// first tail factor, so Run refuses, by the tile, a range past the factor's
// arcs, an inverted one and tiles with no tail, before a sink is opened;
// a plan with neither tiles nor tail runs.
func TestRunRefusesUnwalkablePlan(t *testing.T) {
	head, b := gen.Ring(4), gen.Ring(5)
	tile := func(lo, hi int) [][]Tile { return [][]Tile{{{ID: 7, AArcs: head.ArcSlice(), Lo: lo, Hi: hi}}} }
	for name, plan := range map[string]Plan{
		"past":     {R: 1, Tail: []*graph.Graph{b}, Tiles: tile(0, int(b.NumArcs())+1)},
		"inverted": {R: 1, Tail: []*graph.Graph{b}, Tiles: tile(3, 2)},
		"no tail":  {R: 1, Tiles: tile(0, 0)},
	} {
		sink := &rankCalls{}
		if _, err := Run(context.Background(), Config{Plan: plan, Sink: sink}); err == nil || !strings.Contains(err.Error(), "tile 7") {
			t.Errorf("%s: got %v, want a refusal naming tile 7", name, err)
		}
		if n := sink.n.Load(); n != 0 {
			t.Errorf("%s: the sink was asked for %d ranks before the refusal", name, n)
		}
	}
	if _, err := Run(context.Background(), Config{Plan: Plan{R: 1, Tiles: make([][]Tile, 1)}, Sink: &CountSink{}}); err != nil {
		t.Errorf("a plan with no tiles and no tail: %v", err)
	}
}

// gridStreams is what each tile of the 2D plan of ch at r ranks expands to,
// by tile ID, built without the plan: the arcs of Chain.Arcs whose head arc
// lies in the tile's part of the head and whose first tail arc lies in its
// part of the first tail factor, both parts PartitionArcs', in Chain.Arcs'
// order — the stream of the chain of the two parts as graphs and the rest of
// the tail.
func gridStreams(ch *core.Chain, r int) [][]graph.Edge {
	f := ch.Factors()
	grid := NewGrid2D(r)
	partOf := func(g *graph.Graph, parts int) []int {
		var of []int
		for p, part := range PartitionArcs(g.ArcSlice(), parts) {
			for range part {
				of = append(of, p)
			}
		}
		return of
	}
	aPart, bPart := partOf(f[0], grid.RHalf), partOf(f[1], grid.Q)
	rest := int64(1)
	for _, g := range f[2:] {
		rest *= g.NumArcs()
	}
	out := make([][]graph.Edge, grid.Tiles())
	i := int64(0)
	ch.Arcs(func(u, v int64) bool {
		t := aPart[i/(rest*f[1].NumArcs())] + bPart[(i/rest)%f[1].NumArcs()]*grid.RHalf
		out[t] = append(out[t], graph.Edge{U: u, V: v})
		i++
		return true
	})
	return out
}

// TestPlan2DPartsMatchGridStreams holds 2D plans, whose tiles take arc
// ranges of the first tail factor, to the streams of the tiles as graphs
// (gridStreams): at k = 2 — the ranges then cut the innermost factor, which
// OwnerBySource picks by class within per-tile bounds, on a factor of a
// power-of-two vertex count and one it pads — and k = 3, at R ∈ {4, 9, 16},
// whole and in Plan.Slice windows that start and stop inside a row of the
// product, with no owner, under OwnerBySource and under a BlockOwner, at
// batch 5 and the default. Every rank's arcs must arrive in order: its
// tiles' streams with no owner, its share of all of them in tile order
// under an owner (shares). Some range must cut a row of the innermost
// factor mid-row.
func TestPlan2DPartsMatchGridStreams(t *testing.T) {
	midRowCut := false
	for _, sh := range []struct {
		name string
		ch   *core.Chain
	}{
		{"k2", mustChain(gen.MustRMAT(gen.Graph500Params(4, 701)), gen.MustRMAT(gen.Graph500Params(5, 702)))},
		{"k2_padded", mustChain(gen.ER(12, 0.4, 703), gen.PrefAttach(20, 3, 704))},
		{"k3", mustChain(gen.ER(6, 0.5, 705), gen.PrefAttach(9, 2, 706), gen.MustRMAT(gen.Graph500Params(3, 707)))},
	} {
		for _, r := range []int{4, 9, 16} {
			whole, err := PlanChain2D(sh.ch, r)
			if err != nil {
				t.Fatal(err)
			}
			streams := gridStreams(sh.ch, r)
			var global []graph.Edge
			for _, s := range streams {
				global = append(global, s...)
			}
			if inner := whole.Tail[0].ArcSlice(); len(whole.Tail) == 1 {
				for _, tl := range whole.orderedTiles() {
					midRowCut = midRowCut || tl.Lo > 0 && tl.Lo < len(inner) && inner[tl.Lo-1].U == inner[tl.Lo].U
				}
			}
			midRow := func(from int) int {
				for i := max(from, 1); i < len(global); i++ {
					if global[i-1].U == global[i].U {
						return i
					}
				}
				t.Fatalf("%s r=%d: no position inside a row past %d", sh.name, r, from)
				return 0
			}
			for _, win := range [][2]int{{0, len(global)}, {midRow(len(global) / 5), midRow(4 * len(global) / 5)}} {
				plan := whole
				if win[0] > 0 {
					if plan, err = whole.Slice(int64(win[0]), int64(win[1]-win[0])); err != nil {
						t.Fatal(err)
					}
				}
				// Each tile's window of its stream, and the ranks' tiles'.
				windowed := func(tl Tile) []graph.Edge { return streams[tl.ID][tl.Skip : tl.Skip+plan.Arcs(tl)] }
				var inOrder []graph.Edge
				for _, tl := range plan.orderedTiles() {
					inOrder = append(inOrder, windowed(tl)...)
				}
				assertSameOrder(t, fmt.Sprintf("%s r=%d window %v: the sliced plan's tiles", sh.name, r, win), inOrder, global[win[0]:win[1]])
				for _, owner := range []Owner{nil, OwnerBySource, BlockOwner{NC: plan.NC}} {
					want := make([][]graph.Edge, r)
					if owner != nil {
						want = shares(inOrder, owner, plan)
					} else {
						for rk, ts := range plan.Tiles {
							for _, tl := range ts {
								want[rk] = append(want[rk], windowed(tl)...)
							}
						}
					}
					for _, batch := range []int{5, DefaultBatchSize} {
						cell := fmt.Sprintf("%s r=%d window %v owner %T batch %d", sh.name, r, win, owner, batch)
						mem := NewMemorySink(r)
						if _, err := Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: mem, BatchSize: batch}); err != nil {
							t.Fatalf("%s: %v", cell, err)
						}
						for rk, arcs := range mem.PerRank {
							assertSameOrder(t, fmt.Sprintf("%s rank %d", cell, rk), arcs, want[rk])
						}
					}
				}
			}
		}
	}
	if !midRowCut {
		t.Fatal("no tile's range cuts a row of the innermost factor mid-row; pick other factors")
	}
}

// TestPlanChain2DHoldsTailOnce: a 2D tile's part of the first tail factor is
// an arc range of the plan's one tail, so planning builds no graph and
// allocates by tiles, not by the tail: at R = 16 over RMAT(12)², a 2D plan
// must allocate less than an eighth of the tail's arcs' bytes. Building the
// parts as graphs allocated over five times that.
func TestPlanChain2DHoldsTailOnce(t *testing.T) {
	g := gen.MustRMAT(gen.Graph500Params(12, 708))
	ch := mustChain(g, g)
	tailBytes := uint64(len(g.ArcSlice())) * uint64(unsafe.Sizeof(graph.Edge{}))
	g.RowOffsets()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const runs = 10
	for range runs {
		if _, err := PlanChain2D(ch, 16); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > tailBytes/8 {
		t.Fatalf("PlanChain2D at R = 16 allocates %d B a plan; the tail's arcs are %d B", per, tailBytes)
	}
}

// TestPlanChainRefusesArcOverflow: K17^{⊗8} has 272⁸ ≈ 3e19 arcs. Its
// vertex count (17⁸) fits, so the chain constructs — but Plan.FullArcs
// would wrap (to a count Plan.Arcs clamps to 0 at r=1, to positive
// garbage at r=4) and a run over such a plan would return nil having
// generated nothing. Planning must refuse, in both layouts, at every r.
func TestPlanChainRefusesArcOverflow(t *testing.T) {
	ch, err := core.PowerChain(gen.Clique(17), 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 2, 4} {
		for _, twoD := range []bool{false, true} {
			if _, err := planForChain(ch, r, twoD); err == nil || !strings.Contains(err.Error(), "overflow") {
				t.Errorf("r=%d twoD=%t: planned an overflowing chain (err = %v)", r, twoD, err)
			}
		}
	}
	if _, err := StreamChainFrom(context.Background(), ch, 1, false, 0, 0, -1, Recovery{},
		func([]graph.Edge) error { return nil }); err == nil {
		t.Error("whole-stream StreamChainFrom over an overflowing chain returned nil")
	}
}

// randFactor builds a random factor graph: directed or undirected arcs,
// optionally saturated with full self loops.
func randFactor(n int64, seed int64, undirected, loops bool) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	var arcs []graph.Edge
	for i := 0; i < 3*int(n); i++ {
		u, v := rng.Int63n(n), rng.Int63n(n)
		if u == v {
			continue
		}
		arcs = append(arcs, graph.Edge{U: u, V: v})
		if undirected {
			arcs = append(arcs, graph.Edge{U: v, V: u})
		}
	}
	g, err := graph.New(n, arcs)
	if err != nil {
		panic(err)
	}
	if loops {
		g = g.WithFullSelfLoops()
	}
	return g
}

// The cross-path equivalence property: for random small factors
// (directed/undirected, with/without self loops) every generation path —
// GenerateChain, StreamChainFrom and GenerateChainToStore, 1D and 2D —
// yields the identical edge set of A ⊗ B, under each kind of source owner
// where the path takes one. Run under -race in CI.
func TestPropertyAllPathsEquivalent(t *testing.T) {
	f := func(seedA, seedB int64, rRaw uint8, undirected, loops bool) bool {
		r := int(rRaw%9) + 1
		a := randFactor(5, seedA, undirected, loops)
		b := randFactor(4, seedB, !undirected, loops)
		want, err := core.Product(a, b)
		if err != nil {
			return false
		}
		nC := a.NumVertices() * b.NumVertices()
		owners := []Owner{OwnerBySource, OwnerByBlock(16 * nC), OwnerByBlock(nC)} // under 16·nC rank 0 owns every row
		for _, owner := range owners {
			for _, twoD := range []bool{false, true} {
				res, err := GenerateChain(mustChain(a, b), r, owner, twoD)
				if err != nil {
					return false
				}
				g, err := res.Collect()
				if err != nil || !g.Equal(want) {
					return false
				}
			}
		}
		var streamed []graph.Edge
		if _, err := StreamChainFrom(context.Background(), mustChain(a, b), r, true, 32, 0, -1, Recovery{}, func(batch []graph.Edge) error {
			streamed = append(streamed, batch...)
			return nil
		}); err != nil {
			return false
		}
		gs, err := graph.New(nC, streamed)
		if err != nil || !gs.Equal(want) {
			return false
		}
		for _, twoD := range []bool{false, true} {
			st, _, err := GenerateChainToStore(mustChain(a, b), r, t.TempDir(), twoD)
			if err != nil {
				return false
			}
			g, err := st.LoadGraph()
			if err != nil || !g.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

// GenerateChainToStore under 2D must stream exactly the serial product to disk, with
// each shard holding only its rank's owned edges — the path that "falls
// out for free" from the unified engine.
func TestGenerate2DToStore(t *testing.T) {
	a := gen.PrefAttach(10, 2, 21)
	b := gen.ER(8, 0.5, 22)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3, 6} {
		dir := t.TempDir()
		st, stats, err := GenerateChainToStore(mustChain(a, b), r, dir, true)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if st.TotalEdges() != want.NumArcs() || stats.EdgesGenerated != want.NumArcs() {
			t.Fatalf("R=%d: stored %d, generated %d, want %d",
				r, st.TotalEdges(), stats.EdgesGenerated, want.NumArcs())
		}
		got, err := st.LoadGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("R=%d: on-disk 2D product differs from serial", r)
		}
		for i := 0; i < r; i++ {
			if err := st.IterShard(i, func(u, v int64) bool {
				if OwnerBySource(u, v, r) != i {
					t.Fatalf("R=%d: edge (%d,%d) in wrong shard %d", r, u, v, i)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// failSink fails setup on one rank while the others proceed into their
// walks — the regression shape for the teardown deadlock: before engine
// cancellation, the healthy ranks would block forever waiting for the
// failed rank.
type failSink struct {
	inner  Sink
	failID int
	err    error
}

func (s *failSink) Rank(rk *Rank) (RankSink, error) {
	if rk.ID() == s.failID {
		return nil, s.err
	}
	return s.inner.Rank(rk)
}

// miscountSink stores every block whole but reports one block of each rank
// in off with its count off by off[rank] — a sink that loses or invents
// arcs without an error.
type miscountSink struct {
	inner Sink
	off   map[int]int64
}

func (s *miscountSink) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.inner.Rank(rk)
	if err != nil {
		return nil, err
	}
	return &miscountRankSink{RankSink: rs, off: s.off[rk.ID()]}, nil
}

type miscountRankSink struct {
	RankSink
	off int64
}

func (m *miscountRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	n, err := m.RankSink.(BlockStorer).StoreBlock(edges)
	n, m.off = n+m.off, 0
	return n, err
}

// TestRankBalanceCheck: every rank checks that it stored each arc it
// generated. Rank 0's sink reports one arc short once and rank 1's
// one extra once: the two errors cancel in a cross-rank sum, and each rank
// must still fail on its own, as must a lone short count — under Run and
// under a one-process RunCluster, with an error naming the rank.
func TestRankBalanceCheck(t *testing.T) {
	const r = 2
	plan, err := PlanChain1D(mustChain(gen.ER(8, 0.5, 1), gen.ER(8, 0.5, 2)), r)
	if err != nil {
		t.Fatal(err)
	}
	gen0 := plan.Arcs(plan.Tiles[0][0])
	node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	runs := map[string]func(Config) error{
		"Run": func(cfg Config) error {
			_, err := Run(context.Background(), cfg)
			return err
		},
		"RunCluster": func(cfg Config) error {
			cc := ClusterConfig{Procs: transport.SplitRanks([]string{node.Addr()}, r), Node: node}
			_, err := RunCluster(context.Background(), cc, cfg)
			return err
		},
	}
	cases := []struct {
		name string
		off  map[int]int64
		want []string // the run's error names one of these
	}{
		{"compensating", map[int]int64{0: -1, 1: 1}, []string{
			fmt.Sprintf("rank 0 imbalance: generated %d arcs, stored %d", gen0, gen0-1),
			fmt.Sprintf("rank 1 imbalance: generated %d arcs, stored %d", plan.Arcs(plan.Tiles[1][0]), plan.Arcs(plan.Tiles[1][0])+1),
		}},
		{"short", map[int]int64{0: -1}, []string{
			fmt.Sprintf("rank 0 imbalance: generated %d arcs, stored %d", gen0, gen0-1),
		}},
	}
	for _, c := range cases {
		for name, run := range runs {
			t.Run(c.name+"/"+name, func(t *testing.T) {
				err := run(Config{Plan: plan, Sink: &miscountSink{inner: &CountSink{}, off: c.off}})
				if err == nil {
					t.Fatal("a run whose sink miscounted returned nil")
				}
				for _, w := range c.want {
					if strings.Contains(err.Error(), w) {
						return
					}
				}
				t.Fatalf("run returned %v, want an error naming the rank: one of %q", err, c.want)
			})
		}
	}
}

func TestRankSinkFailureDoesNotDeadlock(t *testing.T) {
	a := gen.ER(20, 0.5, 31)
	b := gen.ER(20, 0.5, 32)
	plan, err := PlanChain1D(mustChain(a, b), 4)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("sink setup boom")
	sink := &failSink{inner: NewMemorySink(4), failID: 1, err: boom}
	done := make(chan error, 1)
	go func() {
		_, err := Run(context.Background(), Config{Plan: plan, Owner: OwnerBySource, Sink: sink})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, boom) {
			t.Fatalf("want sink setup error, got %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("cluster deadlocked after rank sink setup failure")
	}
}

// The user-visible variant: an unwritable store directory (a path under a
// regular file) must propagate the error from every ToStore wrapper
// instead of hanging the cluster.
func TestGenerateToStoreBadDirPropagates(t *testing.T) {
	a := gen.ER(10, 0.5, 33)
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	bad := filepath.Join(file, "store")
	done := make(chan error, 2)
	go func() {
		_, _, err := GenerateChainToStore(mustChain(a, a), 3, bad, false)
		done <- err
	}()
	go func() {
		_, _, err := GenerateChainToStore(mustChain(a, a), 3, bad, true)
		done <- err
	}()
	for i := 0; i < 2; i++ {
		select {
		case err := <-done:
			if err == nil {
				t.Fatal("unwritable store dir must error")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("ToStore deadlocked on unwritable store dir")
		}
	}
}

// cancelSink cancels the run context mid-generation from inside Store —
// exercising end-to-end teardown of a run.
type cancelSink struct {
	cancel context.CancelFunc
	after  int64
	seen   int64
}

func (s *cancelSink) Rank(rk *Rank) (RankSink, error) { return s, nil }
func (s *cancelSink) Store(graph.Edge) error {
	if s.seen++; s.seen == s.after {
		s.cancel()
	}
	return nil
}
func (s *cancelSink) Close() error { return nil }

func TestRunCancellationTearsDownExchange(t *testing.T) {
	a := gen.ER(40, 0.5, 41)
	b := gen.ER(40, 0.5, 42)
	plan, err := PlanChain1D(mustChain(a, b), 1) // single rank: sink is single-goroutine
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sink := &cancelSink{cancel: cancel, after: 500}
	done := make(chan struct{})
	var st Stats
	var runErr error
	go func() {
		defer close(done)
		st, runErr = Run(ctx, Config{Plan: plan, Owner: OwnerBySource, Sink: sink})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancelled run did not tear down")
	}
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", runErr)
	}
	if total := a.NumArcs() * b.NumArcs(); st.EdgesGenerated >= total {
		t.Errorf("cancellation did not stop expansion: generated %d of %d", st.EdgesGenerated, total)
	}
}

func TestPerRankStatsAndInboxDepth(t *testing.T) {
	a := gen.ER(12, 0.5, 51)
	b := gen.ER(12, 0.5, 52)
	const r = 4
	res, err := GenerateChain(mustChain(a, b), r, OwnerBySource, false)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Stats
	if len(st.PerRankGenerated) != r || len(st.PerRankStored) != r {
		t.Fatalf("per-rank slices missing: %+v", st)
	}
	var gen, stored int64
	for rk := 0; rk < r; rk++ {
		gen += st.PerRankGenerated[rk]
		stored += st.PerRankStored[rk]
		if int64(len(res.PerRank[rk])) != st.PerRankStored[rk] {
			t.Errorf("rank %d: stored %d edges but counter says %d",
				rk, len(res.PerRank[rk]), st.PerRankStored[rk])
		}
	}
	if gen != st.EdgesGenerated {
		t.Errorf("per-rank generated sums to %d, total %d", gen, st.EdgesGenerated)
	}
	if stored != res.TotalStored() {
		t.Errorf("per-rank stored sums to %d, total %d", stored, res.TotalStored())
	}
	if st.MaxGenerated() < st.EdgesGenerated/r {
		t.Errorf("MaxGenerated %d below ideal %d", st.MaxGenerated(), st.EdgesGenerated/r)
	}
	// A count-only run populates per-rank counters through the same engine.
	plan, err := PlanChain2D(mustChain(a, b), 6)
	if err != nil {
		t.Fatal(err)
	}
	cs := &CountSink{}
	cst, err := Run(context.Background(), Config{Plan: plan, Sink: cs})
	if err != nil {
		t.Fatal(err)
	}
	if cs.Total() != a.NumArcs()*b.NumArcs() {
		t.Errorf("count sink total %d, want %d", cs.Total(), a.NumArcs()*b.NumArcs())
	}
	var perStored int64
	for _, n := range cst.PerRankStored {
		perStored += n
	}
	if perStored != cs.Total() {
		t.Errorf("per-rank stored %d != counted %d", perStored, cs.Total())
	}
}

// failOnBlock fails rank 0's k-th block and counts the blocks rank 0 was
// handed; the other ranks' blocks are stored.
type failOnBlock struct {
	k      int
	err    error
	blocks int // rank 0's, touched by its goroutine only
}

func (s *failOnBlock) Rank(rk *Rank) (RankSink, error) {
	return &failOnBlockRank{s: s, rank: rk.ID()}, nil
}

type failOnBlockRank struct {
	s    *failOnBlock
	rank int
}

func (t *failOnBlockRank) Store(graph.Edge) error { return errors.New("failOnBlock wants blocks") }
func (t *failOnBlockRank) Close() error           { return nil }

func (t *failOnBlockRank) StoreBlock(edges []graph.Edge) (int64, error) {
	if t.rank == 0 {
		if t.s.blocks++; t.s.blocks == t.s.k {
			return 0, t.s.err
		}
	}
	return int64(len(edges)), nil
}

// TestSinkErrorStopsWalkAtItsBlock: a sink error stops its rank's walk at
// the failing block — the run returns that error, and the rank was handed
// exactly the blocks up to it — with no owner and under a source owner.
func TestSinkErrorStopsWalkAtItsBlock(t *testing.T) {
	ch := mustChain(gen.ER(30, 0.4, 35), gen.ER(20, 0.5, 36))
	plan, err := PlanChain1D(ch, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, owner := range []Owner{nil, OwnerBySource} {
		const k = 3
		boom := errors.New("rank 0's disk is full")
		sink := &failOnBlock{k: k, err: boom}
		runErr := runWithWatchdog(t, chaosWatchdog, func() error {
			_, err := Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: sink, BatchSize: 64})
			return err
		})
		if !errors.Is(runErr, boom) {
			t.Fatalf("owner %v: want the sink's error, got %v", owner != nil, runErr)
		}
		if sink.blocks != k {
			t.Fatalf("owner %v: rank 0 was handed %d blocks, its sink failed on block %d", owner != nil, sink.blocks, k)
		}
	}
}

// cancelOnBlock cancels the run's parent context from inside the first
// StoreBlock any rank makes, and counts what it was handed.
type cancelOnBlock struct {
	cancel context.CancelFunc
	stored atomic.Int64
}

func (s *cancelOnBlock) Rank(*Rank) (RankSink, error) { return s, nil }
func (s *cancelOnBlock) Store(graph.Edge) error       { return errors.New("cancelOnBlock wants blocks") }
func (s *cancelOnBlock) Close() error                 { return nil }

func (s *cancelOnBlock) StoreBlock(edges []graph.Edge) (int64, error) {
	s.cancel()
	s.stored.Add(int64(len(edges)))
	return int64(len(edges)), nil
}

// TestParentCancelStopsWalk: a caller's cancellation reaches a walk through
// the context it reads every contextPoll blocks. Cancelled from inside the
// first StoreBlock of a product of billions of arcs, a run with nothing to
// send must return context.Canceled having handed over a small part of them
// — on one thread and on several.
func TestParentCancelStopsWalk(t *testing.T) {
	ch := mustChain(gen.MustRMAT(gen.Graph500Params(11, 37)), gen.MustRMAT(gen.Graph500Params(11, 38)))
	total, err := ch.NumArcs()
	if err != nil || total < 1e9 {
		t.Fatalf("the product has %d arcs (%v); the test wants ≥ 1e9", total, err)
	}
	plan, err := PlanChain1D(ch, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		ctx, cancel := context.WithCancel(context.Background())
		sink := &cancelOnBlock{cancel: cancel}
		runErr := runWithWatchdog(t, chaosWatchdog, func() error {
			_, err := Run(ctx, Config{Plan: plan, Sink: sink})
			return err
		})
		cancel()
		if !errors.Is(runErr, context.Canceled) {
			t.Fatalf("GOMAXPROCS=%d: want context.Canceled, got %v", procs, runErr)
		}
		if n := sink.stored.Load(); n >= total {
			t.Fatalf("GOMAXPROCS=%d: cancellation did not stop the walk: %d of %d arcs handed over", procs, n, total)
		}
	}
}

// TestResetClearsStopFlag: a rank's failure raises the cluster's stop flag,
// and the next run after Reset starts with it down — a flag left up would
// stop every walk of that run at its first block with no cause.
func TestResetClearsStopFlag(t *testing.T) {
	c, err := newCluster(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rank 1 failed")
	if err := c.run(context.Background(), func(rk *Rank) error {
		if rk.ID() == 1 {
			return boom
		}
		return nil
	}); !errors.Is(err, boom) {
		t.Fatalf("want the rank's error, got %v", err)
	}
	if !c.stop.Load() {
		t.Fatal("a failed rank left the stop flag down")
	}
	c.Reset()
	if err := c.run(context.Background(), func(rk *Rank) error {
		if c.stop.Load() {
			return fmt.Errorf("rank %d starts the run with the stop flag up", rk.ID())
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// blockingSink hands each rank's first block to a channel the test reads
// and then holds the rank in StoreBlock until the test closes release.
type blockingSink struct {
	entered chan int
	release chan struct{}
	first   []bool // per rank, touched by its goroutine only
}

func (s *blockingSink) Rank(rk *Rank) (RankSink, error) {
	return &blockingRankSink{s: s, rank: rk.ID()}, nil
}

type blockingRankSink struct {
	s    *blockingSink
	rank int
}

func (t *blockingRankSink) Store(graph.Edge) error { return errors.New("blockingSink wants blocks") }
func (t *blockingRankSink) Close() error           { return nil }

func (t *blockingRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	if !t.s.first[t.rank] {
		t.s.first[t.rank] = true
		t.s.entered <- t.rank
		<-t.s.release
	}
	return int64(len(edges)), nil
}

// goroutineRecord returns the debug=1 goroutine-profile record — a stack
// with its count and labels — whose frames include fn, or "" when no
// goroutine is there.
func goroutineRecord(fn string) string {
	var b strings.Builder
	if err := pprof.Lookup("goroutine").WriteTo(&b, 1); err != nil {
		return ""
	}
	for _, rec := range strings.Split(b.String(), "\n\n") {
		if strings.Contains(rec, fn) {
			return rec
		}
	}
	return ""
}

// TestPhaseLabels: the walk is labelled at phase boundaries, so a rank is
// named by what it is doing without a swap per block. A rank held inside
// its sink mid-walk reads phase=expand — also under a source owner, whose
// partition runs as phase=filter before the ranks start — and a rank blocked in a
// stream hand-off, waiting on the consumer, reads phase=store.
func TestPhaseLabels(t *testing.T) {
	ch := mustChain(gen.ER(20, 0.5, 39), gen.ER(20, 0.5, 40))
	plan, err := PlanChain1D(ch, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, owner := range []Owner{nil, OwnerBySource} {
		sink := &blockingSink{entered: make(chan int, 1), release: make(chan struct{}), first: make([]bool, 1)}
		done := make(chan error, 1)
		go func() {
			_, err := Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: sink})
			done <- err
		}()
		<-sink.entered
		rec := goroutineRecord("dist.(*blockingRankSink).StoreBlock")
		close(sink.release)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(rec, `"phase":"expand"`) {
			t.Fatalf("owner %v: a rank inside its sink mid-walk is not labelled phase=expand:\n%s", owner != nil, rec)
		}
	}

	release := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := streamPlan(context.Background(), plan, 16, Recovery{}, nil, func([]graph.Edge) error {
			<-release
			return nil
		})
		done <- err
	}()
	// The rank passes through the hand-off's fast path, labelled expand,
	// until the channel is full; from then on it waits in the hand-off.
	var rec string
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(rec, `"phase":"store"`) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		rec = goroutineRecord("dist.(*streamRankSink).handOff")
	}
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rec, `"phase":"store"`) {
		t.Fatalf("a rank blocked in a stream hand-off is not labelled phase=store:\n%s", rec)
	}
}
