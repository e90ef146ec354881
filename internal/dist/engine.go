package dist

import (
	"context"
	"fmt"
	"runtime/pprof"
	"slices"
	"sync/atomic"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// Phase label contexts for runtime/pprof goroutine labels: profiles of an
// engine run attribute samples to the kernel stage (phase=expand|filter|
// route|store) that was executing. Built once — SetGoroutineLabels per
// block is a pointer swap, so labeling costs nothing measurable on the hot
// path. phase=filter is a source owner's pick of its rows (ownedRows.pick);
// phase=route the per-edge exchange, which only other owners reach.
var (
	expandLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "expand"))
	filterLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "filter"))
	routeLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "route"))
	storeLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "store"))
	// sinkFlushLabels marks the async store sink's writer goroutines
	// (sinks.go), so disk-flush time shows up as its own phase instead of
	// blending into the expanding ranks' store samples.
	sinkFlushLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "sink-flush"))
)

// Tile is one unit of expansion work: a slice of head-factor arcs
// crossed with the chain's tail factors (the whole tail under 1D
// partitioning; under 2D the first tail factor is a part and the rest
// ride whole). A two-factor product is the chain whose tail is [B]. ID
// is the tile's plan-wide identity: it is stable across run attempts and
// across reassignment to another rank, which is what checkpoints and the
// exactly-once sink fence key on — at any chain depth, because the tail
// expansion order is the deterministic lexicographic odometer order of
// core.TailCursor.
type Tile struct {
	ID    int
	AArcs []graph.Edge
	Tail  []*graph.Graph // replicated tail factors A₂⊗…⊗Aₖ (len ≥ 1)

	// Skip and Take window the tile's deterministic expansion stream:
	// the kernel starts Skip arcs into the tile (locating the position in
	// O(1), never generating the skipped prefix) and stops after Take
	// arcs (0 = no cap). Plan.Slice sets them to serve a contiguous
	// range of the global stream; whole-stream plans leave them zero.
	Skip, Take int64
}

// FullArcs returns the number of product arcs the unwindowed tile
// expands to — deterministic ground truth (|A_i|·Π|E_{T_d}|). It divides
// the chain's arc count, which PlanChain1D/2D refuse to plan unless it
// fits in int64, so the product here cannot wrap.
func (t Tile) FullArcs() int64 {
	n := int64(len(t.AArcs))
	for _, g := range t.Tail {
		n *= g.NumArcs()
	}
	return n
}

// Arcs returns the number of product arcs the tile generates — FullArcs
// less the Skip prefix, capped by Take. Checkpoints compare stored
// totals against this count, so a windowed tile commits when its window
// (not the whole tile) has been delivered.
func (t Tile) Arcs() int64 {
	n := t.FullArcs() - t.Skip
	if n < 0 {
		n = 0
	}
	if t.Take > 0 && n > t.Take {
		n = t.Take
	}
	return n
}

// Plan is the decomposition stage of the engine: the per-rank tile lists
// produced by 1D (Sec. III) or 2D (Rem. 1) partitioning of a factor
// chain. Plans are inert data — building one does not start a cluster —
// so they can be inspected, rebalanced or logged before running. Tile
// IDs are unique within a plan.
type Plan struct {
	R     int
	NC    int64    // product vertex count Π n_d, overflow-checked at build
	Dims  []int64  // per-factor vertex counts (head first)
	Tiles [][]Tile // Tiles[rank] is rank's expansion work
}

// identityTail is the 1-vertex full-self-loop graph I₁: A ⊗ I₁ = A, so a
// single-factor chain plans as head × [I₁] and every tile keeps a
// non-empty tail.
func identityTail() *graph.Graph {
	g, err := graph.New(1, []graph.Edge{{U: 0, V: 0}})
	if err != nil {
		panic(err)
	}
	return g
}

// planFactors validates a plan request and splits the chain into the
// rank-split head and a non-empty tail. A chain whose arc count overflows
// int64 is refused here: a wrapped Tile.FullArcs would otherwise plan a
// run that expands nothing and reports success.
func planFactors(ch *core.Chain, r int) (head *graph.Graph, tail []*graph.Graph, err error) {
	if r < 1 {
		return nil, nil, fmt.Errorf("dist: plan needs ≥ 1 rank, got %d", r)
	}
	if _, err := ch.NumArcs(); err != nil {
		return nil, nil, fmt.Errorf("dist: cannot plan: %w", err)
	}
	tail = ch.Tail()
	if len(tail) == 0 {
		tail = []*graph.Graph{identityTail()}
	}
	return ch.Head(), tail, nil
}

// PlanChain1D builds the Sec. III decomposition of a factor chain: the
// tail A₂⊗…⊗Aₖ is replicated on every rank and the arcs of the head A₁
// are evenly distributed, so rank ρ expands the single tile
// A₁,ρ ⊗ (A₂⊗…⊗Aₖ). Per-rank replicated storage is O(|E_A₁|/R + Σ|E_T|)
// — the tail is held as factors, never materialized.
func PlanChain1D(ch *core.Chain, r int) (Plan, error) {
	head, tail, err := planFactors(ch, r)
	if err != nil {
		return Plan{}, err
	}
	// ArcSlice shares the factor's cached flat arc list: tiles only read
	// their head-arc windows, so no per-plan copy is needed.
	parts := PartitionArcs(head.ArcSlice(), r)
	tiles := make([][]Tile, r)
	for rk := 0; rk < r; rk++ {
		tiles[rk] = []Tile{{ID: rk, AArcs: parts[rk], Tail: tail}}
	}
	return Plan{R: r, NC: ch.NumVertices(), Dims: ch.Index().Dims(), Tiles: tiles}, nil
}

// PlanChain2D builds the Rem. 1 decomposition of a chain: the head is
// split into R½ parts and the first tail factor into Q parts (see
// Grid2D); deeper tail factors are replicated whole — they are already
// the smallest replicated state, and splitting them would multiply tile
// counts without reducing the O(|E_A₁|/R½ + |E_A₂|/Q + Σ|E_rest|)
// per-rank storage term that matters. The R½·Q tiles are assigned
// round-robin to ranks.
func PlanChain2D(ch *core.Chain, r int) (Plan, error) {
	head, tail, err := planFactors(ch, r)
	if err != nil {
		return Plan{}, err
	}
	b, rest := tail[0], tail[1:]
	grid := NewGrid2D(r)
	aParts := PartitionArcs(head.ArcSlice(), grid.RHalf)
	bParts := PartitionArcs(b.ArcSlice(), grid.Q)
	// Pre-build each B-part as a Graph so expansion can stream against
	// CSR; vertex count is preserved so the mixed-radix indices stay
	// global. Each part's tile tail shares one [part, rest...] slice.
	tails := make([][]*graph.Graph, grid.Q)
	for j := range tails {
		bg, err := graph.New(b.NumVertices(), bParts[j])
		if err != nil {
			return Plan{}, fmt.Errorf("dist: building tail part %d: %w", j, err)
		}
		tails[j] = append([]*graph.Graph{bg}, rest...)
	}
	tiles := make([][]Tile, r)
	for t := 0; t < grid.Tiles(); t++ {
		ai, bj := grid.TileOf(t)
		tiles[t%r] = append(tiles[t%r], Tile{ID: t, AArcs: aParts[ai], Tail: tails[bj]})
	}
	return Plan{R: r, NC: ch.NumVertices(), Dims: ch.Index().Dims(), Tiles: tiles}, nil
}

// planForChain dispatches between the two decompositions.
func planForChain(ch *core.Chain, r int, twoD bool) (Plan, error) {
	if twoD {
		return PlanChain2D(ch, r)
	}
	return PlanChain1D(ch, r)
}

// RankSink consumes the edges owned by one rank. It lives across the
// run's attempts: Store (and the block fast paths) are called from the
// rank's goroutine of whichever attempt is running — attempt boundaries
// give happens-before — and Close from the goroutine driving the run,
// after the last attempt's rank goroutines have been joined. No two calls
// ever overlap; a Sink that aggregates across ranks must still
// synchronize between its RankSinks (or use atomics).
type RankSink interface {
	// Store accepts one owned edge. An error aborts the whole run.
	Store(e graph.Edge) error
	// Close flushes the rank's output; it is called exactly once, after
	// the run's last attempt has ended — even when the run failed or was
	// cancelled. It must not wait on a consumer that is itself waiting for
	// the run to finish.
	Close() error
}

// Sink fans a generation run out to per-rank consumers. Rank is called
// once per rank, inside the rank's goroutine, before the rank's first
// expansion starts (a replayed attempt reuses the RankSink); an
// error aborts the run on every rank (no deadlock: the other ranks'
// exchanges are cancelled rather than left waiting for EOF markers).
type Sink interface {
	Rank(rk *Rank) (RankSink, error)
}

// Recovery is the run's retry policy (runClusterHead). The zero value is
// zero retries: the first fault is returned unchanged.
type Recovery struct {
	// MaxRetries bounds re-run attempts after a recoverable fault (a
	// rank crash, a lost message or a dead peer). The run makes at most
	// 1+MaxRetries attempts; with the budget exhausted the last fault is
	// returned unchanged.
	MaxRetries int
	// Backoff is the base delay before a retry; attempt n waits
	// Backoff·2^(n-1), capped at one second. Zero retries immediately.
	Backoff time.Duration
	// Reassign moves a crashed rank's unfinished tiles to the surviving
	// ranks instead of respawning the same assignment — recovery
	// completes even when a rank is permanently broken (at the cost of
	// load skew). Without it the crashed rank is respawned with its
	// original tiles. It is a no-op under a source owner: every rank
	// generates its own share of every unfinished tile there, so there is
	// no producer to move.
	Reassign bool
}

// Config describes one engine run.
type Config struct {
	Plan Plan
	// Owner names the rank that stores each edge, and by its kind alone
	// decides where the edge is generated. It is bound once per attempt, so
	// r-dependent owner parameters resolve at plan time. Under a SourceOwner
	// (BlockOwner{NC}; also OwnerBySource passed as is) every rank generates
	// exactly the edges it stores — it walks every tile and expands the rows
	// it owns straight into its own sink — and nothing is routed, on any
	// transport. Any other owner — OwnerByEdge, an OwnerByBlock(nC) closure, a
	// caller's own function — is evaluated once per edge and the edge is
	// routed over the batched all-to-all exchange. A nil Owner places
	// nothing: every edge goes to the sink of the rank whose tile produced
	// it, with zero communication (count-only and streaming runs).
	Owner Owner
	Sink  Sink
	// BatchSize is the largest block a sink is handed, the per-destination
	// edge count a routed exchange buffers before flushing a message, and
	// the cadence of cancellation polls during fault-armed expansion. ≤ 0
	// selects DefaultBatchSize (1024, the benchmarked default). Correct for
	// any value ≥ 1; a routed run stages O(R·BatchSize) per rank. Larger is
	// not free: the expansion block is 16 B × BatchSize and must stay in L1
	// beside the streaming innermost factor — at 2048 it leaves and
	// unrouted expansion halves (DefaultBatchSize).
	BatchSize int
	// Faults, when non-nil, arms the run's cluster with an injected
	// fault schedule (see fault.go) — chaos testing of the teardown,
	// redelivery and recovery paths. Nil injects nothing.
	Faults *FaultPlan
	// Recovery (embedded: MaxRetries, Backoff, Reassign) is the retry
	// policy; see the Recovery type.
	Recovery
}

// batchSize resolves Config.BatchSize against the default.
func (cfg Config) batchSize() int {
	if cfg.BatchSize > 0 {
		return cfg.BatchSize
	}
	return DefaultBatchSize
}

// runAttempt executes one attempt of the engine on an already-built
// cluster: every rank walks its tiles with a core.TailCursor — one loop
// for every chain depth — and where an arc is generated is decided by the
// owner alone. With no owner, ExpandNext fills a reused scratch block that
// goes to the rank's own sink. With a source owner (sourceOwner) every rank
// walks every tile and expands only the rows it owns (ownedRows), straight
// into its own sink: nothing is staged, batched or sent, at any R and on
// any transport. With any other owner the block is routed edge by edge over
// the epoch-fenced exchange. Owned batches go to the fenced sink sinkFor
// returns; perGen/perStored get the per-rank counters.
//
// Expansion order is exactly the reference order — head arcs in tile
// order, each crossed with the tail's composed arcs in lexicographic CSR
// order (core.Chain.Arcs) — so what reaches a rank's sink per (tile, rank)
// is the tile's stream filtered by the owner map, in order, byte-identical
// across attempts and across the two placements. That determinism is what
// tile checkpoints and prefix-dedup recovery key on; the step size changes
// polling granularity, never order.
func runAttempt(ctx context.Context, c *Cluster, owner Owner, tiles [][]Tile, sinkFor func(*Rank) (*fencedRankSink, error), perGen, perStored []int64, batch int) error {
	// Bound once per attempt and shared by the ranks: both forms are pure.
	var bound BoundOwnerFunc
	var bySource func(u int64) int
	if so := sourceOwner(owner); so != nil {
		bySource = so.BindSource(c.r)
	} else if owner != nil {
		bound = owner.Bind(c.r)
	}
	return c.RunContext(ctx, func(rk *Rank) error {
		if err := rk.crashAt(FaultBeforeSinkSetup); err != nil {
			return err
		}
		as, err := sinkFor(rk)
		if err != nil {
			return fmt.Errorf("dist: rank %d sink: %w", rk.ID(), err)
		}
		var generated, stored int64
		var sinkErr, crashErr, xErr error
		// Fault-armed runs take the per-edge reference cadence below so
		// crash countdowns keep edge granularity; clean runs never branch
		// into it.
		faulty := c.faults != nil
		// Scratch block reused across every A-arc of every tile. A-arcs
		// expand against B in chunks of ≤ batch arcs, so the scratch is the
		// exchange's buffer size class and checks out of the same freelist
		// — expansion allocates nothing in steady state and per-rank memory
		// stays O(|E_A|/R + |E_B| + R·batch) even when this rank's B is large.
		scratch := c.getBuf(rk.ID(), batch)
		// poll checks for run teardown: sends only notice a torn-down run
		// when a flush fails, and the buffered inboxes can absorb a lot
		// before one does — poll once per block (or per batch of edges on
		// the fault-armed path) so cancellation stops expansion promptly.
		poll := func() bool {
			select {
			case <-rk.c.ctx.Done():
				xErr = context.Cause(rk.c.ctx)
				return true
			default:
				return false
			}
		}
		// perEdge drives a block through edge-granular fault windows — the
		// cadence the chaos schedules count mid-expansion crash hits in. A
		// scheduled crash cancels the run immediately: a dead process
		// stops sending, it does not flush EOF markers. f receives
		// one-edge sub-blocks so both paths share the block plumbing.
		perEdge := func(tile int, block []graph.Edge, f func(tile int, es []graph.Edge) bool) bool {
			for i := range block {
				if err := rk.crashAt(FaultMidExpansion); err != nil {
					crashErr = err
					rk.c.cancel(err)
					return false
				}
				generated++
				if !f(tile, block[i:i+1:i+1]) {
					return false
				}
				if generated%int64(batch) == 0 && poll() {
					return false
				}
			}
			return true
		}
		// expandTiles is the Expand stage's walk: each A-arc of each tile
		// against the tile's tail factors. step generates and places arcs
		// from the cursor — at most rem of the tile's stream, which is what
		// it reports having stepped over (a source owner's step places only
		// the arcs it owns among them); false stops early (teardown, sink
		// failure, or an injected crash).
		//
		// The tail is folded lazily through a core.TailCursor at every
		// depth: composed tail arcs come in lexicographic CSR order (a
		// materialized tail's ArcSlice order), never materialized —
		// kernel_test.go holds every depth to the per-edge reference.
		expandTiles := func(step func(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64) (int64, bool)) {
			var cur *core.TailCursor // one per tail: a source owner's rank walks R tiles of one
			var tail []*graph.Graph
			for ti := range tiles[rk.ID()] {
				t := &tiles[rk.ID()][ti]
				// rem is the tile's windowed arc budget; Skip locates the
				// start position arithmetically (A-arc index + in-tail
				// offset) so the skipped prefix is never generated — the
				// seek cost is independent of Skip's magnitude.
				rem := t.Arcs()
				if rem == 0 {
					continue
				}
				if !slices.Equal(tail, t.Tail) {
					cur, tail = core.NewTailCursor(t.Tail), t.Tail
				}
				nT := cur.NumVertices()
				nTail := cur.Total()
				aStart := int(t.Skip / nTail)
				tailPos := t.Skip % nTail
				for ai := aStart; ai < len(t.AArcs) && rem > 0; ai++ {
					aArc := t.AArcs[ai]
					if ai == aStart {
						cur.SeekTo(tailPos)
					} else {
						cur.Reset()
					}
					uBase, vBase := aArc.U*nT, aArc.V*nT
					for rem > 0 {
						n, ok := step(t, cur, uBase, vBase, rem)
						if !ok {
							return
						}
						if n == 0 {
							break
						}
						rem -= n
					}
				}
			}
		}
		// expandBlocks walks with the step that fills the scratch block for
		// handleBlock to route or store.
		expandBlocks := func(handleBlock func(tile int, block []graph.Edge) bool) {
			expandTiles(func(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64) (int64, bool) {
				pprof.SetGoroutineLabels(expandLabels)
				block := cur.ExpandNext(uBase, vBase, scratch, int(min(rem, int64(batch))))
				scratch = block[:0]
				return int64(len(block)), len(block) == 0 || handleBlock(t.ID, block)
			})
		}
		// deliver hands one owned batch to the rank's sink. Under routing
		// it runs inline from the exchange's progress engine — same
		// goroutine as expansion — and the cancel tears down the other
		// ranks' producers.
		deliver := func(tile int, edges []graph.Edge) bool {
			if sinkErr != nil {
				return false
			}
			n, err := as.storeBlock(tile, edges)
			stored += n
			if err != nil {
				sinkErr = err
				rk.c.cancel(err)
				return false
			}
			return true
		}
		// storeOwn is handleBlock for a rank that stores what it generates:
		// no owner, or a source owner.
		storeOwn := func(tile int, block []graph.Edge) bool {
			pprof.SetGoroutineLabels(storeLabels)
			if faulty {
				return perEdge(tile, block, deliver)
			}
			generated += int64(len(block))
			if !deliver(tile, block) {
				return false
			}
			return !poll()
		}
		switch {
		case bySource != nil:
			own := ownedRows{owner: bySource, rank: rk.ID(), batch: batch, scratch: scratch}
			expandTiles(func(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64) (int64, bool) {
				return own.step(t, cur, uBase, vBase, rem, storeOwn)
			})
			scratch = own.scratch
			atomic.AddInt64(&rk.c.stats.OwnerRowsTested, own.rows)
			atomic.AddInt64(&rk.c.stats.ArcsCompacted, own.copied)
		case bound != nil:
			xErr = rk.exchangeBlocks(batch, func(s *shipper) {
				stageOne := func(tile int, es []graph.Edge) bool {
					e := es[0]
					return s.stage(bound(e.U, e.V), tile, e)
				}
				expandBlocks(func(tile int, block []graph.Edge) bool {
					pprof.SetGoroutineLabels(routeLabels)
					if faulty {
						return perEdge(tile, block, stageOne)
					}
					if !s.route(tile, block, bound) {
						return false
					}
					generated += int64(len(block))
					return !poll()
				})
			}, func(tile int, edges []graph.Edge) {
				// Delivery runs inline on this goroutine (progress on
				// send), so the store label is swapped in per batch; the
				// next block's expand/route labels swap it back out.
				pprof.SetGoroutineLabels(storeLabels)
				deliver(tile, edges)
			})
		default:
			expandBlocks(storeOwn)
		}
		c.putBuf(scratch)
		atomic.AddInt64(&rk.c.stats.EdgesGenerated, generated)
		perGen[rk.ID()] = generated
		perStored[rk.ID()] = stored
		skipped := as.endAttempt()
		switch {
		case sinkErr != nil:
			return sinkErr
		case crashErr != nil:
			return crashErr
		case xErr != nil:
			return xErr
		}
		// Teardown collective: every rank must report a balanced run
		// before the engine declares success — an edge batch that went
		// missing without an error would otherwise be a silent partial
		// result. Replayed duplicates a fenced sink suppressed count as
		// accounted for. A rank that stores what it generates contributes 0
		// and still enters: the reduce is the run's barrier and in-collective
		// fault injection point, and because a rank that died earlier never
		// arrives, it completes for the survivors only through
		// BarrierContext's cancellation awareness.
		delta, rerr := rk.AllReduceSumContext(generated - stored - skipped)
		if rerr != nil {
			return rerr
		}
		if delta != 0 {
			return fmt.Errorf("dist: run imbalance: %d generated edges unaccounted for across ranks", delta)
		}
		return nil
	})
}
