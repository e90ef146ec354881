package dist

// Chaos soak and teardown regressions for the simulated cluster. Fault
// schedules (rank crashes at every injection point, slow and refusing
// sinks) run against the full engine matrix — 1D and 2D plans, no owner and
// source owners, memory/count/store sinks — each under a watchdog. The invariant is the
// paper's verifiability contract: every run either produces the exact
// reference edge set or returns the injected fault as its error. No hangs,
// no partial silent success.

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

const chaosWatchdog = 60 * time.Second

// runWithWatchdog fails the test loudly if fn does not return within the
// deadline — a reintroduced hang trips the watchdog instead of stalling the
// whole test binary.
func runWithWatchdog(t *testing.T, d time.Duration, fn func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- fn() }()
	select {
	case err := <-done:
		return err
	case <-time.After(d):
		t.Fatalf("watchdog: run still blocked after %v", d)
		return nil
	}
}

// chaosKind enumerates the fault families the soak cycles through. The
// first four kinds after the baseline keep the names they had when link
// faults acted on the per-edge exchange's batches; nothing crosses ranks
// now, and each acts on what carries arcs instead — a rank's hand-off to its
// own sink — or on the rank. crash-collective keeps its name from when its
// crash fired in the teardown collective; it fires after the walk now.
type chaosKind int

const (
	chaosBaseline        chaosKind = iota // no faults armed
	chaosDelay                            // every block reaches its sink late, rank 1's later
	chaosDropRecoverable                  // a mid-expansion crash the retry budget recovers
	chaosDropLossy                        // a crash that re-fires past a budget of one → loud
	chaosCrashSink                        // rank dies before sink setup
	chaosCrashExpand                      // rank dies mid-expansion
	chaosCrashExchange                    // a rank's sink refuses a block → loud
	chaosCrashCollective                  // rank dies after its walk (FaultAfterWalk)
	chaosKindCount
)

func (k chaosKind) String() string {
	return [...]string{"baseline", "delay", "drop-recoverable", "drop-lossy",
		"crash-sink", "crash-expand", "crash-exchange", "crash-collective"}[k]
}

// errChaosSink is the failure chaosSink injects.
var errChaosSink = errors.New("chaos: the sink refused a block")

// chaosSink puts the soak's faults on the hand-off from a rank's walk to its
// sink: every block is stored delay late (rank 1's slow late), and the
// failAt-th block of rank failRank (counting from 1; 0 never) is refused
// with errChaosSink.
type chaosSink struct {
	inner       Sink
	delay, slow time.Duration
	failRank    int
	failAt      int64
}

func (s *chaosSink) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.inner.Rank(rk)
	if err != nil {
		return nil, err
	}
	t := &chaosRankSink{RankSink: rs, delay: s.delay}
	if rk.ID() == 1 {
		t.delay = s.slow
	}
	if rk.ID() == s.failRank {
		t.failAt = s.failAt
	}
	return t, nil
}

type chaosRankSink struct {
	RankSink
	delay  time.Duration
	failAt int64
	blocks int64
}

func (t *chaosRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	time.Sleep(t.delay)
	if t.blocks++; t.blocks == t.failAt {
		return 0, errChaosSink
	}
	if bs, ok := t.RankSink.(BlockStorer); ok {
		return bs.StoreBlock(edges)
	}
	for i, e := range edges {
		if err := t.RankSink.Store(e); err != nil {
			return int64(i), err
		}
	}
	return int64(len(edges)), nil
}

// inCollective names the recovery cells that crash at FaultAfterWalk: they
// keep the name they had when the point was the teardown collective's entry,
// as the mid-exchange cells keep theirs (handoffCrash).
const inCollective = "in-collective"

// handoffCrash is the crash of the recovery cells still named mid-exchange,
// after the point where a rank died on an exchange send: the hop that
// carries arcs now is the hand-off to the rank's own sink, and the rank dies
// mid-expansion one arc in, having handed its sink a one-arc block.
func handoffCrash(rank int) CrashSpec {
	return CrashSpec{Rank: rank, Point: FaultMidExpansion, After: 1}
}

// plannedWork returns the rank with the most planned expansion work and
// that rank's product-edge count — the deterministic target for a
// mid-expansion crash.
func plannedWork(p Plan) (rank int, edges int64) {
	for rk, tiles := range p.Tiles {
		var w int64
		for _, tl := range tiles {
			w += p.Arcs(tl)
		}
		if w > edges {
			rank, edges = rk, w
		}
	}
	return rank, edges
}

// busiestOwner returns the rank that stores the most arcs of g under the
// owner map and how many — the deterministic target for a mid-expansion
// crash of a run that generates where it stores, whose ranks each expand
// what they own of every tile instead of the tiles they were planned.
func busiestOwner(g *graph.Graph, owner Owner, plan Plan) (rank int, arcs int64) {
	load := make([]int64, plan.R)
	place := placer(owner, plan)
	g.Arcs(func(u, _ int64) bool {
		load[place(u)]++
		return true
	})
	for rk, n := range load {
		if n > arcs {
			rank, arcs = rk, n
		}
	}
	return rank, arcs
}

// TestChaosSoak drives 64 fault schedules through the engine — every kind
// × 2..5 ranks × 1D/2D, into memory, count and store sinks. The cells named
// routed run under a source owner (OwnerBySource; the name is from when they
// ran OwnerByEdge through the exchange), the unrouted ones with no owner;
// every kind but the crashes at sink setup, mid-expansion and after the
// walk, and the baseline, is always placed. Every schedule must finish
// within the watchdog and either yield the exact reference edge set or
// surface the injected fault as the run's error.
func TestChaosSoak(t *testing.T) {
	a := gen.ER(6, 0.5, 101).WithFullSelfLoops()
	b := gen.PrefAttach(5, 2, 102)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()

	const schedules = 64
	for i := 0; i < schedules; i++ {
		i := i
		kind := chaosKind(i % int(chaosKindCount))
		r := 2 + i%4 // 2..5 ranks
		twoD := (i/8)%2 == 1
		routed := true
		switch kind {
		case chaosBaseline, chaosCrashSink, chaosCrashExpand, chaosCrashCollective:
			routed = (i/16)%2 == 0
		}

		plan, err := planForChain(mustChain(a, b), r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		// The deterministic target of the kinds that need a rank with work:
		// the one planned the most, or under an owner the one that owns most.
		victim, work := plannedWork(plan)
		if routed {
			victim, work = busiestOwner(want, OwnerBySource, plan)
		}

		var fp FaultPlan
		var rec Recovery
		chaos := &chaosSink{failRank: -1}
		expectCrash, expectSinkErr := false, false
		switch kind {
		case chaosBaseline:
		case chaosDelay:
			chaos.delay, chaos.slow = 10*time.Microsecond, 100*time.Microsecond
		case chaosDropRecoverable:
			fp.Crashes = []CrashSpec{{Rank: victim, Point: FaultMidExpansion, After: work / 2}}
			rec = Recovery{MaxRetries: 2, Backoff: time.Millisecond}
		case chaosDropLossy:
			// Every attempt hands the rank the same work, and the crash fires
			// on each: the budget of one retry runs out, loudly.
			fp.Crashes = []CrashSpec{{Rank: victim, Point: FaultMidExpansion, Repeat: true}}
			rec = Recovery{MaxRetries: 1, Backoff: time.Millisecond}
			expectCrash = true
		case chaosCrashSink:
			fp.Crashes = []CrashSpec{{Rank: i % r, Point: FaultBeforeSinkSetup}}
			expectCrash = true
		case chaosCrashExpand:
			fp.Crashes = []CrashSpec{{Rank: victim, Point: FaultMidExpansion, After: int64(i % 5)}}
			expectCrash = work > int64(i%5)
		case chaosCrashExchange:
			chaos.failRank, chaos.failAt = victim, int64(1+i%2)
			expectSinkErr = true
		case chaosCrashCollective:
			// The point fires once per attempt, and the run has one.
			fp.Crashes = []CrashSpec{{Rank: i % r, Point: FaultAfterWalk}}
			expectCrash = true
		}

		cfg := Config{Plan: plan, Faults: &fp, Recovery: rec}
		if routed {
			cfg.Owner = OwnerBySource
		}
		var verify func(t *testing.T)
		switch {
		case kind == chaosDelay && i >= 32:
			// The on-disk path: shards must reassemble the product.
			ss := NewStoreSink(t.TempDir(), r)
			cfg.Sink = ss
			verify = func(t *testing.T) {
				st, err := ss.Finalize(nC)
				if err != nil {
					t.Fatal(err)
				}
				g, err := st.LoadGraph()
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(want) {
					t.Fatal("on-disk chaos product differs from reference")
				}
			}
		case kind == chaosBaseline && !routed:
			cs := &CountSink{}
			cfg.Sink = cs
			verify = func(t *testing.T) {
				if cs.Total() != want.NumArcs() {
					t.Fatalf("counted %d edges, reference has %d", cs.Total(), want.NumArcs())
				}
			}
		default:
			ms := NewMemorySink(r)
			cfg.Sink = ms
			verify = func(t *testing.T) { assertExact(t, nC, mergedArcs(ms), want) }
		}
		if kind == chaosDelay || kind == chaosCrashExchange {
			chaos.inner, cfg.Sink = cfg.Sink, chaos
		}

		name := fmt.Sprintf("%02d_%s_r%d_%s_%s", i, kind, r,
			map[bool]string{false: "1d", true: "2d"}[twoD],
			map[bool]string{false: "unrouted", true: "routed"}[routed])
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var st Stats
			runErr := runWithWatchdog(t, chaosWatchdog, func() (err error) {
				st, err = Run(context.Background(), cfg)
				return err
			})
			if expectSinkErr {
				if !errors.Is(runErr, errChaosSink) {
					t.Fatalf("want the refused block's error, got %v", runErr)
				}
				return
			}
			if expectCrash {
				var ce *RankCrashError
				if !errors.As(runErr, &ce) {
					t.Fatalf("want RankCrashError, got %v", runErr)
				}
				if crash := fp.Crashes[0]; ce.Rank != crash.Rank || ce.Point != crash.Point {
					t.Fatalf("crash surfaced as rank %d at %s, injected rank %d at %s",
						ce.Rank, ce.Point, crash.Rank, crash.Point)
				}
				return
			}
			if runErr != nil {
				t.Fatalf("recoverable schedule failed: %v", runErr)
			}
			verify(t)
			recovered := int64(0)
			if kind == chaosDropRecoverable {
				recovered = 1
			}
			if st.RecoveredRuns != recovered {
				t.Fatalf("RecoveredRuns = %d, want %d", st.RecoveredRuns, recovered)
			}
		})
	}
}

// TestClusterOneShotAfterCancelledRun: a failed run leaves its cancelled
// context, its raised stop flag and its counters behind. Reset rewinds
// them: the next run starts on a live context with zeroed stats, and every
// pooled buffer the failed run checked out is back.
func TestClusterOneShotAfterCancelledRun(t *testing.T) {
	c, err := newCluster(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rank 0 aborted mid-walk")
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.run(context.Background(), func(rk *Rank) error {
			buf := append(c.getBuf(DefaultBatchSize), graph.Edge{U: 7, V: 7})
			atomic.AddInt64(&c.stats.EdgesGenerated, int64(len(buf)))
			if rk.ID() != 0 {
				// Wait out the failure, as a walking rank stops at its
				// next block, then give the buffer back.
				<-rk.Context().Done()
				c.putBuf(buf)
				return context.Cause(rk.Context())
			}
			c.putBuf(buf)
			return boom
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("aborted run returned %v, want boom", runErr)
	}
	if c.ctx.Err() == nil || !c.stop.Load() {
		t.Fatal("precondition: the aborted run should leave a cancelled context and the stop flag up")
	}

	c.Reset()
	if st := c.Stats(); st.EdgesGenerated != 0 || st.OutstandingBufs != 0 {
		t.Fatalf("after Reset: %d edges generated, %d pooled buffers outstanding; want 0 and 0", st.EdgesGenerated, st.OutstandingBufs)
	}
	if c.ctx.Err() != nil {
		t.Fatal("Reset left the failed run's cancelled context in place")
	}
	runErr = runWithWatchdog(t, chaosWatchdog, func() error {
		return c.run(context.Background(), func(rk *Rank) error {
			if err := rk.Context().Err(); err != nil {
				return fmt.Errorf("rank %d starts the run on a dead context: %v", rk.ID(), err)
			}
			return nil
		})
	})
	if runErr != nil {
		t.Fatalf("post-Reset run failed: %v", runErr)
	}
}

// TestExchangeAbortReturnsPooledBuffersOnCancel is the buffer-leak
// regression for the one place batches are still staged: a stream whose
// context is cancelled by its consumer after the first batch — every rank
// with a partial hand-off batch staged in its sink, some with full ones
// parked in their channels — must give every pooled buffer back.
func TestExchangeAbortReturnsPooledBuffersOnCancel(t *testing.T) {
	ch := mustChain(gen.ER(8, 0.5, 241), gen.PrefAttach(7, 2, 242))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var st Stats
	runErr := runWithWatchdog(t, chaosWatchdog, func() (err error) {
		st, err = StreamChainFrom(ctx, ch, 3, false, 5, 0, -1, Recovery{}, func([]graph.Edge) error {
			cancel()
			return nil
		})
		return err
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("stream error = %v, want context.Canceled", runErr)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("cancelled stream leaked %d pooled batch buffers", st.OutstandingBufs)
	}
}

// cancelAfterStores cancels the run's context after a global number of
// sink stores, from whichever rank gets there first.
type cancelAfterStores struct {
	inner  Sink
	cancel context.CancelFunc
	after  int64
	n      int64
}

func (s *cancelAfterStores) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.inner.Rank(rk)
	if err != nil {
		return nil, err
	}
	return &cancelAfterRankSink{s: s, inner: rs}, nil
}

type cancelAfterRankSink struct {
	s     *cancelAfterStores
	inner RankSink
}

func (t *cancelAfterRankSink) Store(e graph.Edge) error {
	if atomic.AddInt64(&t.s.n, 1) == t.s.after {
		t.s.cancel()
	}
	return t.inner.Store(e)
}

func (t *cancelAfterRankSink) Close() error { return t.inner.Close() }

// TestStatsConsistentWhenCancelledMidExchange asserts the per-rank
// counters are never torn by teardown: whatever a cancelled run managed
// to do, PerRankStored must equal what each rank's sink actually holds
// and PerRankGenerated must sum to the global counter. (The name is from
// when the cancel landed mid-exchange; it now lands mid-walk.)
func TestStatsConsistentWhenCancelledMidExchange(t *testing.T) {
	// ≈ 192k edges: a cancel at 1000 stores lands far from the end, and a
	// walk reads the context every contextPoll blocks.
	a := gen.ER(30, 0.5, 61)
	b := gen.ER(30, 0.5, 62)
	const r = 4
	plan, err := PlanChain1D(mustChain(a, b), r)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	mem := NewMemorySink(r)
	sink := &cancelAfterStores{inner: mem, cancel: cancel, after: 1000}
	var st Stats
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		var err error
		st, err = Run(ctx, Config{Plan: plan, Owner: OwnerBySource, Sink: sink})
		return err
	})
	if !errors.Is(runErr, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", runErr)
	}
	if len(st.PerRankGenerated) != r || len(st.PerRankStored) != r {
		t.Fatalf("per-rank slices missing on cancelled run: %+v", st)
	}
	var sumGen, sumStored int64
	for rk := 0; rk < r; rk++ {
		if g := st.PerRankGenerated[rk]; g < 0 {
			t.Fatalf("rank %d: negative generated count %d", rk, g)
		}
		if got, counted := int64(len(mem.PerRank[rk])), st.PerRankStored[rk]; got != counted {
			t.Fatalf("rank %d: sink holds %d edges but PerRankStored says %d (torn count)", rk, got, counted)
		}
		sumGen += st.PerRankGenerated[rk]
		sumStored += st.PerRankStored[rk]
	}
	if sumGen != st.EdgesGenerated {
		t.Fatalf("per-rank generated sums to %d, global counter %d", sumGen, st.EdgesGenerated)
	}
	if sumStored > sumGen {
		t.Fatalf("stored %d edges but only generated %d", sumStored, sumGen)
	}
	if total := a.NumArcs() * b.NumArcs(); st.EdgesGenerated >= total {
		t.Fatalf("cancellation did not stop expansion: %d of %d", st.EdgesGenerated, total)
	}
}

// TestChaosReplayDeterministic pins the schedule property: the same
// FaultPlan surfaces the same fault at the same place on every run — the
// victim dies having generated exactly the schedule's arcs.
func TestChaosReplayDeterministic(t *testing.T) {
	a := gen.ER(8, 0.5, 71)
	b := gen.ER(7, 0.5, 72)
	plan, err := planForChain(mustChain(a, b), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	victim, work := busiestOwner(mustProduct(t, a, b), OwnerBySource, plan)
	after := work / 2
	for round := 0; round < 2; round++ {
		fp := FaultPlan{Crashes: []CrashSpec{{Rank: victim, Point: FaultMidExpansion, After: after}}}
		var st Stats
		runErr := runWithWatchdog(t, chaosWatchdog, func() (err error) {
			st, err = Run(context.Background(), Config{Plan: plan, Owner: OwnerBySource, Sink: NewMemorySink(3), Faults: &fp})
			return err
		})
		var ce *RankCrashError
		if !errors.As(runErr, &ce) || ce.Rank != victim || ce.Point != FaultMidExpansion {
			t.Fatalf("round %d: want the crash of rank %d mid-expansion, got %v", round, victim, runErr)
		}
		if g := st.PerRankGenerated[victim]; g != after {
			t.Fatalf("round %d: rank %d generated %d arcs, the schedule lets %d through", round, victim, g, after)
		}
	}
}

// --- Supervised recovery -------------------------------------------------
//
// The tests below flip the chaos contract for recoverable schedules: with
// Recovery armed, a run must produce the exact reference edge set
// *despite* the injected fault — bounded retries, exactly-once sinks, no
// buffer leaks — and exhausting the budget must degrade to the loud
// failure the unsupervised engine reports.

// mergedArcs flattens a MemorySink's per-rank slices.
func mergedArcs(ms *MemorySink) []graph.Edge {
	var arcs []graph.Edge
	for _, s := range ms.PerRank {
		arcs = append(arcs, s...)
	}
	return arcs
}

// assertExact rebuilds a graph from arcs and compares it to the reference.
func assertExact(t *testing.T, nC int64, arcs []graph.Edge, want *graph.Graph) {
	t.Helper()
	g, err := graph.New(nC, arcs)
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("recovered run's edge set differs from reference")
	}
}

// TestRecoverCrashEachPoint crashes one rank at each injection point,
// under each placement — by source block (the cells named routed:
// BlockOwner, where they once ran OwnerByEdge), unrouted (no owner) and
// owned (the source hash: every rank generates what it stores) — and
// asserts the supervised run still delivers the exact product, with the
// retry surfaced in Stats and every pooled buffer returned. The
// mid-exchange point, placed by block alone as it once was routed alone, is
// the crash at the first hand-off (handoffCrash).
func TestRecoverCrashEachPoint(t *testing.T) {
	a := gen.ER(6, 0.5, 201).WithFullSelfLoops()
	b := gen.PrefAttach(5, 2, 202)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()

	const midExchange = "mid-exchange"
	points := []string{FaultBeforeSinkSetup.String(), FaultMidExpansion.String(), midExchange, inCollective}
	placements := []struct {
		name  string
		owner Owner
	}{{"routed", BlockOwner{NC: nC}}, {"unrouted", nil}, {"owned", OwnerBySource}}
	for pi, point := range points {
		for _, place := range placements {
			if point == midExchange && place.name != "routed" {
				continue
			}
			point, twoD, place := point, pi%2 == 1, place
			name := fmt.Sprintf("%s_%s_%s", point, map[bool]string{false: "1d", true: "2d"}[twoD], place.name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const r = 3
				plan, err := planForChain(mustChain(a, b), r, twoD)
				if err != nil {
					t.Fatal(err)
				}
				rank, work := plannedWork(plan)
				if place.owner != nil {
					rank, work = busiestOwner(want, place.owner, plan)
				}
				var crash CrashSpec
				switch point {
				case midExchange:
					crash = handoffCrash(rank)
				case FaultMidExpansion.String():
					crash = CrashSpec{Rank: rank, Point: FaultMidExpansion, After: work / 2}
				case FaultBeforeSinkSetup.String():
					crash = CrashSpec{Rank: 1, Point: FaultBeforeSinkSetup}
				default:
					crash = CrashSpec{Rank: 1, Point: FaultAfterWalk}
				}
				ms := NewMemorySink(r)
				cfg := Config{
					Plan:     plan,
					Owner:    place.owner,
					Sink:     ms,
					Faults:   &FaultPlan{Crashes: []CrashSpec{crash}},
					Recovery: Recovery{MaxRetries: 2, Backoff: time.Millisecond},
				}
				var st Stats
				runErr := runWithWatchdog(t, chaosWatchdog, func() error {
					var err error
					st, err = Run(context.Background(), cfg)
					return err
				})
				if runErr != nil {
					t.Fatalf("supervised run failed despite retry budget: %v", runErr)
				}
				assertExact(t, nC, mergedArcs(ms), want)
				if got := st.TotalRetries(); got < 1 || got > 2 {
					t.Fatalf("TotalRetries = %d, want 1..2", got)
				}
				if st.RetriesPerRank[crash.Rank] == 0 {
					t.Fatalf("retry not attributed to crashed rank %d: %v", crash.Rank, st.RetriesPerRank)
				}
				if st.RecoveredRuns != 1 {
					t.Fatalf("RecoveredRuns = %d, want 1", st.RecoveredRuns)
				}
				if st.OutstandingBufs != 0 {
					t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
				}
				if place.owner != nil {
					assertPlacement(t, ms, place.owner, plan)
				}
			})
		}
	}
}

// TestRecoverExhaustedBudgetStaysLoud pins the degradation contract: a
// permanently broken rank (Repeat crash) — every retry hands it the same
// work — exhausts MaxRetries and the run returns the injected fault
// exactly like an unsupervised one — loudly, with no silent partial output.
func TestRecoverExhaustedBudgetStaysLoud(t *testing.T) {
	a := gen.ER(6, 0.5, 231)
	b := gen.ER(6, 0.5, 232)
	const r = 3
	plan, err := PlanChain1D(mustChain(a, b), r)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMemorySink(r)
	var st Stats
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		var err error
		st, err = Run(context.Background(), Config{
			Plan: plan, Owner: OwnerBySource, Sink: ms,
			Faults:   &FaultPlan{Crashes: []CrashSpec{{Rank: 1, Point: FaultMidExpansion, Repeat: true}}},
			Recovery: Recovery{MaxRetries: 2, Backoff: time.Millisecond},
		})
		return err
	})
	var ce *RankCrashError
	if !errors.As(runErr, &ce) || ce.Rank != 1 || ce.Point != FaultMidExpansion {
		t.Fatalf("want the injected RankCrashError after budget exhaustion, got %v", runErr)
	}
	if got := st.TotalRetries(); got != 2 {
		t.Fatalf("TotalRetries = %d, want the full budget of 2", got)
	}
	if st.RecoveredRuns != 0 {
		t.Fatalf("RecoveredRuns = %d on a failed run", st.RecoveredRuns)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("failed supervised run leaked %d pooled buffers", st.OutstandingBufs)
	}
}

// TestCheckpointsAssignOneRule: the checkpoint table's one fold and one
// assignment rule. On a 2D plan where rank 0 holds two tiles, each process
// reports absolute per-(rank, tile) counts — rank 1's tile stored whole on
// ranks 0 and 1, every other tile in part — and set makes a process's rows
// exactly its absolutes (a second identical report does not add), ignores
// ranks outside the process and tiles the plan lacks, and zeroes a dead
// process's range. assign then hands every uncommitted tile to its planned
// rank in plan order; the committed tile is absent.
func TestCheckpointsAssignOneRule(t *testing.T) {
	const r = 3
	plan, err := PlanChain2D(mustChain(gen.ER(6, 0.5, 271), gen.PrefAttach(6, 2, 272)), r)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Tiles[0]) < 2 {
		t.Fatalf("rank 0 holds %d tiles, the test needs two", len(plan.Tiles[0]))
	}
	done := plan.Tiles[1][0] // stored whole on ranks 0 and 1, which survive
	const deadLo, deadHi = 2, 3
	rows := func(cp *checkpoints) map[int]map[int]int64 {
		got := make(map[int]map[int]int64)
		for _, ts := range cp.tiles {
			for d, n := range ts.stored {
				if n != 0 {
					if got[d] == nil {
						got[d] = make(map[int]int64)
					}
					got[d][ts.tile.ID] = n
				}
			}
		}
		return got
	}
	for _, owned := range []bool{false, true} {
		cp := newCheckpoints(plan)
		stored := make(map[int]map[int]int64)
		for d := 0; d < r; d++ {
			stored[d] = make(map[int]int64)
		}
		wantTiles := make(map[int][]int)
		for rk, ts := range plan.Tiles {
			for _, tl := range ts {
				if tl.ID == done.ID {
					if owned {
						stored[0][tl.ID], stored[1][tl.ID] = plan.Arcs(tl)/2, plan.Arcs(tl)-plan.Arcs(tl)/2
					} else {
						stored[rk][tl.ID] = plan.Arcs(tl)
					}
					continue
				}
				wantTiles[rk] = append(wantTiles[rk], tl.ID)
				for d := 0; d < r; d++ {
					if !owned && d != rk {
						continue // under no owner only the planned rank stores
					}
					n := plan.Arcs(tl) * int64(d+1) / int64(4*r) // a part of the tile at each
					if n == 0 {
						t.Fatalf("tile %d has %d arcs, too few to split", tl.ID, plan.Arcs(tl))
					}
					stored[d][tl.ID] = n
				}
			}
		}
		// Processes [0, 2) and [2, 3). The first one's report also names
		// the second one's rank and a tile the plan lacks: neither may land.
		cp.set(deadLo, deadHi, map[int]map[int]int64{2: stored[2]})
		first := map[int]map[int]int64{0: maps.Clone(stored[0]), 1: stored[1], 2: {done.ID: 1}}
		first[0][999] = 5
		cp.set(0, deadLo, first)
		cp.set(0, deadLo, first)
		want := maps.Clone(stored)
		for d, m := range want {
			if len(m) == 0 {
				delete(want, d)
			}
		}
		if got := rows(cp); !reflect.DeepEqual(got, want) {
			t.Fatalf("owned=%v: after every process's report the table holds %v, want each rank's absolutes %v", owned, got, want)
		}
		cp.set(deadLo, deadHi, nil)
		delete(want, 2)
		if got := rows(cp); !reflect.DeepEqual(got, want) {
			t.Fatalf("owned=%v: after process [%d,%d) died the table holds %v, want %v", owned, deadLo, deadHi, got, want)
		}
		if tiles := cp.assign(); !reflect.DeepEqual(tiles, wantTiles) {
			t.Fatalf("owned=%v: assigned %v, want every uncommitted tile on its planned rank in plan order: %v", owned, tiles, wantTiles)
		}
	}
}

// TestRecoverSoak sweeps crash-then-recover schedules — every injection
// point, single and double faults, 1D/2D, by source block (the cells named
// routed: BlockOwner, where they once ran OwnerByEdge), unrouted and
// (schedules 24 on) owned by the source hash — asserting the exact edge set
// and a retry count bounded by the budget. The mid-exchange cells crash at
// the first hand-off (handoffCrash); a double fault (_lossy, once a lost
// batch) adds a crash of the next rank after its walk, which fires in
// whichever attempt first gets there. The cells named in-collective crash
// after the walk too (inCollective).
func TestRecoverSoak(t *testing.T) {
	a := gen.ER(6, 0.5, 251).WithFullSelfLoops()
	b := gen.PrefAttach(5, 2, 252)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()

	const schedules = 36
	for i := 0; i < schedules; i++ {
		i := i
		const midExchange = "mid-exchange"
		point := []string{FaultBeforeSinkSetup.String(), FaultMidExpansion.String(), midExchange, inCollective}[i%4]
		r := 2 + i%3
		twoD := (i/4)%2 == 1
		routed := point == midExchange || (i/8)%2 == 0
		owned := i >= 24
		if owned {
			point = []string{FaultBeforeSinkSetup.String(), FaultMidExpansion.String(), inCollective}[i%3]
			r, routed = 2+(i/3)%4, false
		}
		doubleFault := routed && i%3 == 0
		const budget = 4

		var owner Owner
		placement := "unrouted"
		switch {
		case routed:
			owner, placement = BlockOwner{NC: nC}, "routed"
		case owned:
			owner, placement = OwnerBySource, "owned"
		}
		plan, err := planForChain(mustChain(a, b), r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		rank, work := plannedWork(plan)
		if owner != nil {
			rank, work = busiestOwner(want, owner, plan)
		}
		var crash CrashSpec
		switch point {
		case midExchange:
			crash = handoffCrash(rank)
		case FaultMidExpansion.String():
			crash = CrashSpec{Rank: rank, Point: FaultMidExpansion, After: int64(i % 2)}
			if owned {
				crash.After = work / int64(1+i%3)
			}
			if work <= crash.After {
				crash.After = 0
			}
		case FaultBeforeSinkSetup.String():
			crash = CrashSpec{Rank: i % r, Point: FaultBeforeSinkSetup, After: int64(i % 2)}
		default:
			// The point fires once per attempt, so a countdown of one would
			// outlast a run that needs only one.
			crash = CrashSpec{Rank: i % r, Point: FaultAfterWalk}
		}
		fp := &FaultPlan{Crashes: []CrashSpec{crash}}
		if doubleFault {
			fp.Crashes = append(fp.Crashes, CrashSpec{Rank: (crash.Rank + 1) % r, Point: FaultAfterWalk})
		}
		ms := NewMemorySink(r)
		cfg := Config{
			Plan: plan, Owner: owner, Sink: ms, Faults: fp,
			Recovery: Recovery{MaxRetries: budget, Backoff: time.Millisecond},
		}

		name := fmt.Sprintf("%02d_%s_r%d_%s_%s%s", i, point, r,
			map[bool]string{false: "1d", true: "2d"}[twoD], placement,
			map[bool]string{false: "", true: "_lossy"}[doubleFault])
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			var st Stats
			runErr := runWithWatchdog(t, chaosWatchdog, func() error {
				var err error
				st, err = Run(context.Background(), cfg)
				return err
			})
			if runErr != nil {
				t.Fatalf("recoverable schedule failed: %v", runErr)
			}
			assertExact(t, nC, mergedArcs(ms), want)
			if got := st.TotalRetries(); got > budget {
				t.Fatalf("TotalRetries = %d exceeds budget %d", got, budget)
			}
			if st.OutstandingBufs != 0 {
				t.Fatalf("schedule leaked %d pooled buffers", st.OutstandingBufs)
			}
		})
	}
}

// TestRecoverAsyncStoreSink crashes ranks while the async store sink's
// writer goroutines are mid-drain, recovers under supervision, and
// proves the recovered on-disk store still holds exactly the
// core.Product edge set — the exactly-once contract of the batched sink
// under replay fencing. This is the store-backed twin of
// TestRecoverCrashEachPoint: the in-memory sink cannot see a writer
// goroutine double-appending a replayed batch or dropping a staged tail
// on teardown; the shard files can.
func TestRecoverAsyncStoreSink(t *testing.T) {
	a := gen.ER(8, 0.5, 231).WithFullSelfLoops()
	b := gen.PrefAttach(6, 2, 232)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()

	const midExchange = "mid-exchange"
	for _, point := range []string{FaultMidExpansion.String(), midExchange, inCollective} {
		point := point
		t.Run(point, func(t *testing.T) {
			t.Parallel()
			const r = 3
			plan, err := planForChain(mustChain(a, b), r, false)
			if err != nil {
				t.Fatal(err)
			}
			// By source, as every store run is: the rank that stores an arc
			// generates it. The mid-expansion crash comes halfway through the
			// busiest rank's share, so the sink already staged (and possibly
			// flushed) edges that the replay will resume past;
			// the mid-exchange one right after its first hand-off
			// (handoffCrash), one arc staged.
			var owner Owner = OwnerBySource
			rank, work := busiestOwner(want, owner, plan)
			crash := CrashSpec{Rank: 1, Point: FaultAfterWalk}
			switch point {
			case FaultMidExpansion.String():
				crash = CrashSpec{Rank: rank, Point: FaultMidExpansion, After: work / 2}
			case midExchange:
				crash = handoffCrash(rank)
			}
			ss := NewStoreSink(t.TempDir(), r)
			var st Stats
			runErr := runWithWatchdog(t, chaosWatchdog, func() error {
				var err error
				st, err = Run(context.Background(), Config{
					Plan: plan, Owner: owner, Sink: ss,
					Faults:   &FaultPlan{Crashes: []CrashSpec{crash}},
					Recovery: Recovery{MaxRetries: 2, Backoff: time.Millisecond},
				})
				return err
			})
			if runErr != nil {
				t.Fatalf("supervised run failed despite retry budget: %v", runErr)
			}
			store, err := ss.Finalize(nC)
			if err != nil {
				t.Fatal(err)
			}
			g, err := store.LoadGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !g.Equal(want) {
				t.Fatal("recovered store differs from core.Product — async sink broke exactly-once under replay")
			}
			if st.RecoveredRuns != 1 {
				t.Fatalf("RecoveredRuns = %d, want 1", st.RecoveredRuns)
			}
			if st.OutstandingBufs != 0 {
				t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
			}
		})
	}
}
