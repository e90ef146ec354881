package dist

// Chaos soak and teardown regressions for the simulated cluster. Seeded
// fault schedules (link delays, probabilistic drops with bounded
// redelivery, rank crashes at every injection point) run against the
// full engine matrix — 1D and 2D plans, routed and unrouted sinks,
// memory/count/store sinks — each under a watchdog. The invariant is
// the paper's verifiability contract: every run either produces the
// exact reference edge set or returns the injected fault as its error.
// No hangs, no partial silent success.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	chantransport "kronlab/internal/dist/transport/chan"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

const chaosWatchdog = 60 * time.Second

// runWithWatchdog fails the test loudly if fn does not return within the
// deadline — a reintroduced collective or exchange hang trips the
// watchdog instead of stalling the whole test binary.
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

// chaosKind enumerates the fault families the soak cycles through.
type chaosKind int

const (
	chaosBaseline        chaosKind = iota // no faults armed
	chaosDelay                            // per-link delivery delay
	chaosDropRecoverable                  // drops with ample redelivery budget
	chaosDropLossy                        // certain drop, tiny budget → ErrMessageLost
	chaosCrashSink                        // rank dies before sink setup
	chaosCrashExpand                      // rank dies mid-expansion
	chaosCrashExchange                    // rank dies on an exchange send
	chaosCrashCollective                  // rank dies entering the teardown collective
	chaosKindCount
)

func (k chaosKind) String() string {
	return [...]string{"baseline", "delay", "drop-recoverable", "drop-lossy",
		"crash-sink", "crash-expand", "crash-exchange", "crash-collective"}[k]
}

// plannedWork returns the rank with the most planned expansion work and
// that rank's product-edge count — the deterministic target for a
// mid-expansion crash.
func plannedWork(p Plan) (rank int, edges int64) {
	for rk, tiles := range p.Tiles {
		var w int64
		for _, tl := range tiles {
			w += tl.Arcs()
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
func busiestOwner(g *graph.Graph, owner Owner, r int) (rank int, arcs int64) {
	load := make([]int64, r)
	place := placer(owner, r)
	g.Arcs(func(u, v int64) bool {
		load[place(u, v)]++
		return true
	})
	for rk, n := range load {
		if n > arcs {
			rank, arcs = rk, n
		}
	}
	return rank, arcs
}

// TestChaosSoak drives ≥64 seeded fault schedules through the engine.
// Every schedule must finish within the watchdog and either yield the
// exact reference edge set or surface the injected fault as the run's
// error.
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
		// Link-fault kinds and exchange crashes need routing traffic;
		// the remaining kinds alternate to cover the unrouted path too.
		routed := true
		switch kind {
		case chaosBaseline, chaosCrashSink, chaosCrashExpand, chaosCrashCollective:
			routed = (i/16)%2 == 0
		}

		plan, err := planForChain(mustChain(a, b), r, twoD)
		if err != nil {
			t.Fatal(err)
		}

		fp := FaultPlan{Seed: int64(1000 + i)}
		expectCrash, expectLost := false, false
		switch kind {
		case chaosBaseline:
		case chaosDelay:
			fp.Link.MaxDelay = time.Millisecond
			// One extra-slow link, exercising the per-link override.
			fp.Links = map[Link]LinkFault{{From: 0, To: 1}: {MaxDelay: 3 * time.Millisecond}}
		case chaosDropRecoverable:
			// Loss probability per message is 0.4^33 — never, but every
			// cross-rank message is exercised through the retry loop.
			fp.Link.DropProb = 0.4
			fp.MaxRedeliver = 32
		case chaosDropLossy:
			// Every attempt drops and the budget is tiny: the first
			// cross-rank message (each rank flushes EOF to every peer,
			// and r ≥ 2) is declared lost and must fail the run loudly.
			fp.Link.DropProb = 1
			fp.MaxRedeliver = 2
			expectLost = true
		case chaosCrashSink:
			fp.Crashes = []CrashSpec{{Rank: i % r, Point: FaultBeforeSinkSetup}}
			expectCrash = true
		case chaosCrashExpand:
			rank, work := plannedWork(plan)
			fp.Crashes = []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: int64(i % 5)}}
			expectCrash = work > int64(i%5)
		case chaosCrashExchange:
			// Every rank performs at least r sends (the EOF flush to
			// each peer), so After < r always fires.
			fp.Crashes = []CrashSpec{{Rank: i % r, Point: FaultMidExchange, After: int64(i % 2)}}
			expectCrash = true
		case chaosCrashCollective:
			// The teardown reduce enters three barriers per rank.
			fp.Crashes = []CrashSpec{{Rank: i % r, Point: FaultInCollective, After: int64(i % 3)}}
			expectCrash = true
		}

		cfg := Config{Plan: plan, Faults: &fp}
		var verify func(t *testing.T)
		switch {
		case kind == chaosDelay && i >= 32:
			// Routed on-disk path: shards must reassemble the product. By
			// edge, so that there are links for the delays to sit on — a
			// source owner sends nothing.
			ss := NewStoreSink(t.TempDir(), r)
			cfg.Owner, cfg.Sink = OwnerByEdge, ss
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
			if routed {
				cfg.Owner = OwnerByEdge
			}
			verify = func(t *testing.T) {
				var arcs []graph.Edge
				for _, s := range ms.PerRank {
					arcs = append(arcs, s...)
				}
				g, err := graph.New(nC, arcs)
				if err != nil {
					t.Fatal(err)
				}
				if !g.Equal(want) {
					t.Fatal("run reported success but edge set differs from reference")
				}
			}
		}

		name := fmt.Sprintf("%02d_%s_r%d_%s_%s", i, kind, r,
			map[bool]string{false: "1d", true: "2d"}[twoD],
			map[bool]string{false: "unrouted", true: "routed"}[routed])
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			runErr := runWithWatchdog(t, chaosWatchdog, func() error {
				_, err := Run(context.Background(), cfg)
				return err
			})
			switch {
			case expectCrash:
				var ce *RankCrashError
				if !errors.As(runErr, &ce) {
					t.Fatalf("want RankCrashError, got %v", runErr)
				}
				if crash := fp.Crashes[0]; ce.Rank != crash.Rank || ce.Point != crash.Point {
					t.Fatalf("crash surfaced as rank %d at %s, injected rank %d at %s",
						ce.Rank, ce.Point, crash.Rank, crash.Point)
				}
			case expectLost:
				if !errors.Is(runErr, ErrMessageLost) {
					t.Fatalf("want ErrMessageLost, got %v", runErr)
				}
			default:
				if runErr != nil {
					t.Fatalf("recoverable schedule failed: %v", runErr)
				}
				verify(t)
			}
		})
	}
}

// TestBarrierReleasesOnRankFailure is the collective-deadlock regression:
// a rank error during a collective used to leave every other rank waiting
// on the barrier cond var forever. BarrierContext must release and return
// the dead rank's error as the run's cause.
func TestBarrierReleasesOnRankFailure(t *testing.T) {
	boom := errors.New("rank 2 died")
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			if rk.ID() == 2 {
				return boom
			}
			if err := rk.BarrierContext(); !errors.Is(err, boom) {
				return fmt.Errorf("BarrierContext returned %v, want the dead rank's error", err)
			}
			return nil
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error = %v, want the dead rank's error", runErr)
	}
}

// The legacy blocking Barrier must also release (by returning) on a
// cancelled run instead of hanging its callers.
func TestBarrierLegacyUnblocksOnCancelledRun(t *testing.T) {
	boom := errors.New("rank 0 died")
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			if rk.ID() == 0 {
				return boom
			}
			rk.Barrier() // must return, not hang
			return nil
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error = %v, want boom", runErr)
	}
}

func TestAllReduceSumCancelledReturnsCause(t *testing.T) {
	boom := errors.New("rank 3 died")
	c, err := NewCluster(4)
	if err != nil {
		t.Fatal(err)
	}
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			if rk.ID() == 3 {
				return boom
			}
			if _, err := rk.AllReduceSumContext(1); !errors.Is(err, boom) {
				return fmt.Errorf("AllReduceSumContext returned %v, want the dead rank's error", err)
			}
			return nil
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error = %v, want boom", runErr)
	}
}

// TestClusterOneShotAfterCancelledRun is the stale-inbox regression: an
// aborted run used to leave its cancelled context and undelivered
// messages in place, so a second run on the same cluster would misroute
// stale batches into the new exchange. The cluster is now explicitly
// one-shot, and Reset drains the residue.
func TestClusterOneShotAfterCancelledRun(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rank 0 aborted mid-exchange")
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			if rk.ID() != 0 {
				return nil
			}
			// Stage an undelivered message, then die before EOF: the
			// exact residue an aborted exchange leaves behind.
			buf := c.getBuf(DefaultBatchSize)
			buf = append(buf, graph.Edge{U: 7, V: 7})
			s := newShipper(rk, DefaultBatchSize, nil)
			s.send(1, Message{Edges: buf})
			return boom
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("aborted run returned %v, want boom", runErr)
	}
	tr := c.tr.(*chantransport.Transport)
	if tr.Depth(1) == 0 {
		t.Fatal("precondition: aborted run should have left a stale inbox message")
	}

	// Reuse without Reset is the corruption hazard — it must be refused.
	if err := c.Run(func(rk *Rank) error { return nil }); !errors.Is(err, ErrClusterUsed) {
		t.Fatalf("second run on a used cluster = %v, want ErrClusterUsed", err)
	}

	c.Reset()
	for i := 0; i < c.Size(); i++ {
		if n := tr.Depth(i); n != 0 {
			t.Fatalf("inbox %d still holds %d stale messages after Reset", i, n)
		}
	}
	if n := c.outstandingBufs(); n != 0 {
		t.Fatalf("%d pooled buffers still outstanding after Reset", n)
	}
	if st := c.Stats(); st.Messages != 0 || st.EdgesRouted != 0 || st.BytesSent != 0 || st.MaxInboxDepth != 0 {
		t.Fatalf("Reset did not zero stats: %+v", st)
	}

	// A real exchange on the reset cluster delivers exactly the fresh
	// edges — the stale (7,7) batch must not reappear.
	received := make([][]graph.Edge, 2)
	runErr = runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			var got []graph.Edge
			err := rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
				for to := 0; to < 2; to++ {
					emit(to, graph.Edge{U: int64(rk.ID()), V: int64(to)})
				}
			}, func(e graph.Edge) {
				got = append(got, e)
			})
			received[rk.ID()] = got
			return err
		})
	})
	if runErr != nil {
		t.Fatalf("post-Reset run failed: %v", runErr)
	}
	for id, got := range received {
		if len(got) != 2 {
			t.Fatalf("rank %d received %d edges after Reset, want 2: %v", id, len(got), got)
		}
		for _, e := range got {
			if e.U == 7 && e.V == 7 {
				t.Fatalf("rank %d received a stale pre-Reset batch: %v", id, got)
			}
		}
	}
}

// TestExchangeAbortReturnsPooledBuffersOnCancel is the buffer-leak
// regression: staged, un-flushed per-destination batches used to vanish
// from the pool whenever an exchange aborted.
func TestExchangeAbortReturnsPooledBuffersOnCancel(t *testing.T) {
	c, err := NewCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("rank 0 died before exchanging")
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			if rk.ID() == 0 {
				return boom
			}
			// Stage one small batch per destination (nothing reaches the
			// batchSize flush threshold), then hold the exchange open
			// until teardown so the EOF flush happens on a dead run.
			return rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
				for to := 0; to < 3; to++ {
					emit(to, graph.Edge{U: int64(rk.ID()), V: int64(to)})
				}
				<-rk.Context().Done()
			}, func(graph.Edge) {})
		})
	})
	if !errors.Is(runErr, boom) {
		t.Fatalf("run error = %v, want boom", runErr)
	}
	if n := c.outstandingBufs(); n != 0 {
		t.Fatalf("aborted exchange leaked %d pooled batch buffers", n)
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
// and PerRankGenerated must sum to the global counter.
func TestStatsConsistentWhenCancelledMidExchange(t *testing.T) {
	// The product must exceed the cluster's total buffering capacity —
	// r inboxes of 4r+16 messages × batchSize edges plus the producers'
	// staged batches (~148k edges at r=4) — or producers could finish
	// the whole expansion into the inboxes before a starved receiver
	// stores the edge that triggers cancellation, and the "expansion
	// stopped" assertion below would be a scheduling coin flip. At ~192k
	// edges the senders must block, receivers must drain, and the cancel
	// at 1000 stores always lands mid-run.
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
		st, err = Run(ctx, Config{Plan: plan, Owner: OwnerByEdge, Sink: sink})
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

// TestChaosReplayDeterministic pins the seeded-schedule property: the
// same FaultPlan on a Reset cluster surfaces the same fault. (Routed by
// edge: a link fault needs messages, and a source owner sends none.)
func TestChaosReplayDeterministic(t *testing.T) {
	a := gen.ER(8, 0.5, 71)
	b := gen.ER(7, 0.5, 72)
	plan, err := planForChain(mustChain(a, b), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	fp := FaultPlan{Seed: 7, Link: LinkFault{DropProb: 1}, MaxRedeliver: 1}
	for round := 0; round < 2; round++ {
		runErr := runWithWatchdog(t, chaosWatchdog, func() error {
			_, err := Run(context.Background(), Config{
				Plan: plan, Owner: OwnerByEdge, Sink: NewMemorySink(3), Faults: &fp,
			})
			return err
		})
		if !errors.Is(runErr, ErrMessageLost) {
			t.Fatalf("round %d: want ErrMessageLost, got %v", round, runErr)
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
// under each placement — routed by edge, unrouted, and owned (a source
// owner: every rank generates what it stores) — and asserts the supervised
// run still delivers the exact product, with the retry surfaced in Stats
// and every pooled buffer returned.
func TestRecoverCrashEachPoint(t *testing.T) {
	a := gen.ER(6, 0.5, 201).WithFullSelfLoops()
	b := gen.PrefAttach(5, 2, 202)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()

	points := []FaultPoint{FaultBeforeSinkSetup, FaultMidExpansion, FaultMidExchange, FaultInCollective}
	placements := []struct {
		name  string
		owner Owner
	}{{"routed", OwnerByEdge}, {"unrouted", nil}, {"owned", OwnerBySource}}
	for pi, point := range points {
		for _, place := range placements {
			if point == FaultMidExchange && place.name != "routed" {
				// Only a routed run sends: unrouted and owned ranks store
				// what they generate, so the point is unreachable there.
				continue
			}
			point, place := point, place
			twoD := pi%2 == 1
			name := fmt.Sprintf("%s_%s_%s", point, map[bool]string{false: "1d", true: "2d"}[twoD], place.name)
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				const r = 3
				plan, err := planForChain(mustChain(a, b), r, twoD)
				if err != nil {
					t.Fatal(err)
				}
				crash := CrashSpec{Rank: 1, Point: point}
				if point == FaultMidExpansion {
					rank, work := plannedWork(plan)
					if place.name == "owned" {
						rank, work = busiestOwner(want, place.owner, r)
					}
					crash.Rank, crash.After = rank, work/2
				}
				ms := NewMemorySink(r)
				cfg := Config{
					Plan:     plan,
					Owner:    place.owner,
					Sink:     ms,
					Faults:   &FaultPlan{Seed: int64(300 + pi), Crashes: []CrashSpec{crash}},
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
				if place.name == "owned" {
					assertPlacement(t, ms, place.owner)
					if st.Messages != 0 || st.EdgesRouted != 0 {
						t.Fatalf("owned run sent %d messages, %d edges", st.Messages, st.EdgesRouted)
					}
				}
			})
		}
	}
}

// TestRecoverLostBatch schedules one deterministic permanent message loss
// and asserts the supervised replay gets the batch through, blaming the
// sending rank for the retry. (Routed by edge: there is no batch to lose
// under a source owner.)
func TestRecoverLostBatch(t *testing.T) {
	a := gen.ER(7, 0.5, 211)
	b := gen.ER(6, 0.5, 212)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
			Plan: plan, Owner: OwnerByEdge, Sink: ms,
			Faults:   &FaultPlan{Seed: 213, LoseAfter: 2, LoseDeliveries: 1},
			Recovery: Recovery{MaxRetries: 1, Backoff: time.Millisecond},
		})
		return err
	})
	if runErr != nil {
		t.Fatalf("supervised run failed despite retry budget: %v", runErr)
	}
	assertExact(t, a.NumVertices()*b.NumVertices(), mergedArcs(ms), want)
	if st.TotalRetries() != 1 || st.RecoveredRuns != 1 {
		t.Fatalf("want exactly one recovering retry, got retries=%d recovered=%d",
			st.TotalRetries(), st.RecoveredRuns)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
	}
}

// TestRecoverCrashPlusLostBatch is the acceptance scenario: one rank
// crashes mid-expansion AND one batch is permanently dropped, and the
// supervised run still completes with the exact core.Product edge set,
// retry stats > 0 and no buffer leaks.
func TestRecoverCrashPlusLostBatch(t *testing.T) {
	a := gen.ER(8, 0.5, 221).WithFullSelfLoops()
	b := gen.PrefAttach(6, 2, 222)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	const r = 4
	plan, err := planForChain(mustChain(a, b), r, true)
	if err != nil {
		t.Fatal(err)
	}
	rank, work := plannedWork(plan)
	ms := NewMemorySink(r)
	var st Stats
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		var err error
		st, err = Run(context.Background(), Config{
			Plan: plan, Owner: OwnerByEdge, Sink: ms,
			Faults: &FaultPlan{
				Seed:      223,
				Crashes:   []CrashSpec{{Rank: rank, Point: FaultMidExpansion, After: work / 2}},
				LoseAfter: 1, LoseDeliveries: 1,
			},
			Recovery: Recovery{MaxRetries: 3, Backoff: time.Millisecond},
		})
		return err
	})
	if runErr != nil {
		t.Fatalf("double-fault schedule failed despite retry budget: %v", runErr)
	}
	assertExact(t, a.NumVertices()*b.NumVertices(), mergedArcs(ms), want)
	if got := st.TotalRetries(); got < 1 || got > 3 {
		t.Fatalf("TotalRetries = %d, want 1..3 (bounded by budget)", got)
	}
	if st.RecoveredRuns != 1 {
		t.Fatalf("RecoveredRuns = %d, want 1", st.RecoveredRuns)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
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
			Faults:   &FaultPlan{Seed: 233, Crashes: []CrashSpec{{Rank: 1, Point: FaultMidExpansion, Repeat: true}}},
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

// TestCheckpointsAssignOneRule: the checkpoint table's one skip rule. On a
// 2D plan where rank 0 holds two tiles, with partial counts harvested,
// rank 1's tile stored whole and one process's ranks zeroed, assign hands every
// uncommitted tile to its planned rank in plan order and asks each storing
// rank to skip exactly its stored prefix of it; the committed tile is
// absent. Under no owner a tile's one storing rank is its planned rank, so
// the skip lands there alone and is the tile's whole stored total.
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
	for _, owned := range []bool{false, true} {
		cp := newCheckpoints(plan)
		stored := make(map[int]map[int]int64)
		for d := 0; d < r; d++ {
			stored[d] = make(map[int]int64)
		}
		wantTiles := make(map[int][]int)
		wantSkip := make(map[int]map[int]int64)
		for rk, ts := range plan.Tiles {
			for _, tl := range ts {
				if tl.ID == done.ID {
					if owned {
						stored[0][tl.ID], stored[1][tl.ID] = tl.Arcs()/2, tl.Arcs()-tl.Arcs()/2
					} else {
						stored[rk][tl.ID] = tl.Arcs()
					}
					continue
				}
				wantTiles[rk] = append(wantTiles[rk], tl.ID)
				for d := 0; d < r; d++ {
					if !owned && d != rk {
						continue // under no owner only the planned rank stores
					}
					n := tl.Arcs() * int64(d+1) / int64(4*r) // a part of the tile at each
					if n == 0 {
						t.Fatalf("tile %d has %d arcs, too few to split", tl.ID, tl.Arcs())
					}
					stored[d][tl.ID] = n
					if d < deadLo || d >= deadHi {
						if wantSkip[d] == nil {
							wantSkip[d] = make(map[int]int64)
						}
						wantSkip[d][tl.ID] = n
					}
				}
			}
		}
		cp.harvest(stored)
		cp.zeroRanks(deadLo, deadHi)
		tiles, skip := cp.assign()
		if !reflect.DeepEqual(tiles, wantTiles) {
			t.Fatalf("owned=%v: assigned %v, want every uncommitted tile on its planned rank in plan order: %v", owned, tiles, wantTiles)
		}
		if !reflect.DeepEqual(skip, wantSkip) {
			t.Fatalf("owned=%v: skip %v, want each storing rank's surviving prefix: %v", owned, skip, wantSkip)
		}
		if owned {
			continue
		}
		for rk, ts := range plan.Tiles {
			for _, tl := range ts {
				for d, m := range skip {
					if n, ok := m[tl.ID]; ok && (d != rk || n != cp.byID[tl.ID].storedTotal()) {
						t.Fatalf("no owner: tile %d (rank %d) skips %d at rank %d, want only its stored total %d at rank %d",
							tl.ID, rk, n, d, cp.byID[tl.ID].storedTotal(), rk)
					}
				}
			}
		}
	}
}

// TestPartitionDetectedLoudly black-holes a rank mid-exchange with every
// channel still open — the failure mode nothing trips on except a
// failure detector — and asserts the unsupervised run dies promptly with
// a PeerError naming the partitioned rank, rather than hanging on
// batches that will never arrive. (Routed by edge: the partition is
// scheduled in sends, and a source owner makes none.)
func TestPartitionDetectedLoudly(t *testing.T) {
	a := gen.ER(8, 0.5, 251)
	b := gen.ER(7, 0.5, 252)
	const r = 3
	plan, err := PlanChain1D(mustChain(a, b), r)
	if err != nil {
		t.Fatal(err)
	}
	ms := NewMemorySink(r)
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		_, err := Run(context.Background(), Config{
			Plan: plan, Owner: OwnerByEdge, Sink: ms,
			Faults: &FaultPlan{Seed: 253, PartitionRank: 1, PartitionAfterSends: 3},
		})
		return err
	})
	var pe *transport.PeerError
	if !errors.As(runErr, &pe) {
		t.Fatalf("partitioned run returned %v, want *transport.PeerError", runErr)
	}
	if pe.Proc != 1 {
		t.Fatalf("PeerError names rank %d, want the partitioned rank 1", pe.Proc)
	}
	if !errors.Is(pe.Err, transport.ErrHeartbeat) {
		t.Fatalf("PeerError cause = %v, want the failure-detection verdict", pe.Err)
	}
}

// TestRecoverPartition is the supervised form: the partition kills the
// first attempt via the failure detector, Reset heals the network (the
// fault is one-shot, like a crash that does not re-fire), and the replay
// delivers the exact product with the retry blamed on the partitioned
// rank and no leaked buffers.
func TestRecoverPartition(t *testing.T) {
	a := gen.ER(8, 0.5, 261).WithFullSelfLoops()
	b := gen.PrefAttach(6, 2, 262)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
			Plan: plan, Owner: OwnerByEdge, Sink: ms,
			Faults:   &FaultPlan{Seed: 263, PartitionRank: 1, PartitionAfterSends: 4},
			Recovery: Recovery{MaxRetries: 2, Backoff: time.Millisecond},
		})
		return err
	})
	if runErr != nil {
		t.Fatalf("supervised run failed despite a healed partition: %v", runErr)
	}
	assertExact(t, a.NumVertices()*b.NumVertices(), mergedArcs(ms), want)
	if st.TotalRetries() < 1 {
		t.Fatal("partition recovery left no retry trace")
	}
	if st.RetriesPerRank[1] == 0 {
		t.Fatalf("retry not attributed to the partitioned rank: %v", st.RetriesPerRank)
	}
	if st.RecoveredRuns != 1 {
		t.Fatalf("RecoveredRuns = %d, want 1", st.RecoveredRuns)
	}
	if st.HeartbeatMisses == 0 {
		t.Fatal("the simulated detector's verdict left no heartbeat miss in Stats")
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("recovered run leaked %d pooled buffers", st.OutstandingBufs)
	}
}

// TestEpochFencingDropsStaleBatch forges a batch from a stale epoch into
// an inbox and asserts the receiver's fence drops it whole — counted in
// Stats, buffer recycled, edges never delivered.
func TestEpochFencingDropsStaleBatch(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	c.epoch = 5
	stale := c.getBuf(DefaultBatchSize)
	stale = append(stale, graph.Edge{U: 9, V: 9})
	c.tr.(*chantransport.Transport).Inject(Message{From: 0, Dest: 1, Epoch: 3, Edges: stale})

	received := make([][]graph.Edge, 2)
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			var got []graph.Edge
			err := rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
				for to := 0; to < 2; to++ {
					emit(to, graph.Edge{U: int64(rk.ID()), V: int64(to)})
				}
			}, func(e graph.Edge) { got = append(got, e) })
			received[rk.ID()] = got
			return err
		})
	})
	if runErr != nil {
		t.Fatalf("exchange failed: %v", runErr)
	}
	for id, got := range received {
		if len(got) != 2 {
			t.Fatalf("rank %d received %d edges, want 2: %v", id, len(got), got)
		}
		for _, e := range got {
			if e.U == 9 && e.V == 9 {
				t.Fatalf("rank %d received the stale-epoch batch: %v", id, got)
			}
		}
	}
	st := c.Stats()
	if st.StaleBatches != 1 {
		t.Fatalf("StaleBatches = %d, want 1", st.StaleBatches)
	}
	if st.OutstandingBufs != 0 {
		t.Fatalf("stale batch's pooled buffer not recycled: %d outstanding", st.OutstandingBufs)
	}
}

// TestRecoverSoak sweeps seeded crash-then-recover schedules — every
// injection point, single and double faults, 1D/2D, routed, unrouted and
// (schedules 24 on; the three points a run without messages reaches) owned
// by source — asserting the exact edge set and a retry count bounded by
// the budget.
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
		point := []FaultPoint{FaultBeforeSinkSetup, FaultMidExpansion, FaultMidExchange, FaultInCollective}[i%4]
		r := 2 + i%3
		twoD := (i/4)%2 == 1
		routed := point == FaultMidExchange || (i/8)%2 == 0
		owned := i >= 24
		if owned {
			point = []FaultPoint{FaultBeforeSinkSetup, FaultMidExpansion, FaultInCollective}[i%3]
			r, routed = 2+(i/3)%4, false
		}
		doubleFault := routed && i%3 == 0
		const budget = 4

		plan, err := planForChain(mustChain(a, b), r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		crash := CrashSpec{Rank: i % r, Point: point, After: int64(i % 2)}
		if point == FaultMidExpansion {
			rank, work := plannedWork(plan)
			if owned {
				rank, work = busiestOwner(want, OwnerBySource, r)
				crash.After = work / int64(1+i%3)
			}
			if work <= crash.After {
				crash.After = 0
			}
			crash.Rank = rank
		}
		fp := &FaultPlan{Seed: int64(400 + i), Crashes: []CrashSpec{crash}}
		if doubleFault {
			fp.LoseAfter, fp.LoseDeliveries = int64(1+i%3), 1
		}
		ms := NewMemorySink(r)
		cfg := Config{
			Plan: plan, Sink: ms, Faults: fp,
			Recovery: Recovery{MaxRetries: budget, Backoff: time.Millisecond},
		}
		placement := "unrouted"
		switch {
		case routed:
			cfg.Owner, placement = OwnerByEdge, "routed"
		case owned:
			cfg.Owner, placement = OwnerBySource, "owned"
		}

		name := fmt.Sprintf("%02d_%s_r%d_%s_%s%s", i, crash.Point, r,
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

	for pi, point := range []FaultPoint{FaultMidExpansion, FaultMidExchange, FaultInCollective} {
		point := point
		t.Run(fmt.Sprint(point), func(t *testing.T) {
			t.Parallel()
			const r = 3
			plan, err := planForChain(mustChain(a, b), r, false)
			if err != nil {
				t.Fatal(err)
			}
			// The mid-expansion crash comes halfway through the busiest
			// rank's expansion, so the sink already staged (and possibly
			// flushed) edges that the replay will regenerate behind the fence.
			crash := CrashSpec{Rank: 1, Point: point}
			// By source, as every store run is: the rank that stores an arc
			// generates it, and the busiest one dies halfway through its
			// share. The mid-exchange crash needs an exchange to fire in, so
			// that cell alone routes (by edge; the store reassembles either way).
			var owner Owner = OwnerBySource
			switch point {
			case FaultMidExpansion:
				rank, work := busiestOwner(want, owner, r)
				crash.Rank, crash.After = rank, work/2
			case FaultMidExchange:
				owner = OwnerByEdge
			}
			ss := NewStoreSink(t.TempDir(), r)
			var st Stats
			runErr := runWithWatchdog(t, chaosWatchdog, func() error {
				var err error
				st, err = Run(context.Background(), Config{
					Plan: plan, Owner: owner, Sink: ss,
					Faults:   &FaultPlan{Seed: int64(400 + pi), Crashes: []CrashSpec{crash}},
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
