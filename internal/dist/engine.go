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
// store) that was executing. Built once and swapped at phase boundaries, not
// per block (a swap is a context lookup; two per block cost the unplaced walk
// 7 %): a walk is phase=expand from each tile on, sink calls included;
// phase=filter a source owner's pick (ownedRows.pick), and phase=store a rank
// blocked in a sink hand-off.
var (
	expandLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "expand"))
	filterLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "filter"))
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
// is the tile's plan-wide identity: it is stable across run attempts, which
// is what checkpoints and the exactly-once sink fence key on — at any chain
// depth, because the tail expansion order is the deterministic
// lexicographic odometer order of core.TailCursor.
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
// error aborts the attempt on every rank of the process (the other ranks
// stop at their next block).
type Sink interface {
	Rank(rk *Rank) (RankSink, error)
}

// Recovery is the run's retry policy (runClusterHead). The zero value is
// zero retries: the first fault is returned unchanged.
type Recovery struct {
	// MaxRetries bounds re-run attempts after a recoverable fault (a
	// rank crash or a dead process). The run makes at most
	// 1+MaxRetries attempts; with the budget exhausted the last fault is
	// returned unchanged.
	MaxRetries int
	// Backoff is the base delay before a retry; attempt n waits
	// Backoff·2^(n-1), capped at one second. Zero retries immediately.
	Backoff time.Duration
}

// Config describes one engine run.
type Config struct {
	Plan Plan
	// Owner names the rank that stores each edge, and every rank generates
	// what it stores (see Owner). A nil interface (not a typed nil) places
	// nothing: every edge goes to the sink of the rank whose tile produced
	// it (count-only and streaming runs).
	Owner Owner
	Sink  Sink
	// BatchSize is the largest block a sink is handed; clean and
	// fault-armed runs walk in the same blocks. ≤ 0 selects DefaultBatchSize
	// (1024, the benchmarked default). Correct for any value ≥ 1. Larger is
	// not free: the expansion block is 16 B × BatchSize and must stay in L1
	// beside the streaming innermost factor — at 2048 it leaves and
	// unplaced expansion halves (DefaultBatchSize).
	BatchSize int
	// Faults, when non-nil, arms the run's ranks with an injected crash
	// schedule (see fault.go) — chaos testing of the teardown and recovery
	// paths. Nil injects nothing.
	Faults *FaultPlan
	// Recovery (embedded: MaxRetries, Backoff) is the retry policy; see the
	// Recovery type.
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
// for every chain depth — into its own sink. With no owner, ExpandNext
// fills a reused scratch block. With one (its source form, Owner.BindSource)
// every rank walks every tile and expands only the rows it owns
// (ownedRows): nothing is staged, batched or sent, at any R. Blocks go to
// the fenced sink sinkFor returns; perGen/perStored get the per-rank
// counters.
//
// Expansion order is exactly the reference order — head arcs in tile
// order, each crossed with the tail's composed arcs in lexicographic CSR
// order (core.Chain.Arcs) — so what reaches a rank's sink per (tile, rank)
// is the tile's stream filtered by the owner map, in order, byte-identical
// across attempts. That determinism is what tile checkpoints and
// prefix-dedup recovery key on; the step size changes polling granularity,
// never order. A fault-armed run walks the same blocks.
func runAttempt(ctx context.Context, c *cluster, owner Owner, tiles [][]Tile, sinkFor func(*Rank) (*fencedRankSink, error), perGen, perStored []int64, batch int) error {
	// Resolved once per attempt and shared by the ranks: the map is pure,
	// and OwnerBySource's class partitions are built once and then only read.
	var bySource func(u int64) int
	var classes *classPicks
	if owner != nil {
		bySource = owner.BindSource(c.r) // RunCluster refused an owner without one
		classes = newClassPicks(owner, bySource, c.r)
	}
	err := c.run(ctx, func(rk *Rank) error {
		if err := rk.crashAt(FaultBeforeSinkSetup); err != nil {
			return err
		}
		as, err := sinkFor(rk)
		if err != nil {
			return fmt.Errorf("dist: rank %d sink: %w", rk.ID(), err)
		}
		// The scratch block is reused across every A-arc of every tile. A-arcs
		// expand against B in chunks of ≤ batch arcs, and the scratch checks
		// out of the package freelist — expansion allocates nothing in steady
		// state and per-rank memory stays O(|E_A|/R + |E_B| + batch) even
		// when this rank's B is large.
		w := walk{rk: rk, as: as, faults: c.faults, batch: batch, scratch: c.getBuf(batch)}
		if bySource != nil {
			w.own = &ownedRows{owner: bySource, rank: rk.ID(), batch: batch, classes: classes, scratch: w.scratch}
		}
		w.tiles(tiles[rk.ID()])
		if w.own != nil {
			w.scratch = w.own.scratch
			atomic.AddInt64(&rk.c.stats.OwnerRowsTested, w.own.rows)
			atomic.AddInt64(&rk.c.stats.ArcsCompacted, w.own.copied)
		}
		c.putBuf(w.scratch)
		atomic.AddInt64(&rk.c.stats.EdgesGenerated, w.generated)
		perGen[rk.ID()] = w.generated
		perStored[rk.ID()] = w.stored
		skipped := as.endAttempt()
		switch {
		case w.sinkErr != nil:
			return w.sinkErr
		case w.crashErr != nil:
			return w.crashErr
		case w.stopErr != nil:
			return w.stopErr
		}
		if err := rk.crashAt(FaultAfterWalk); err != nil {
			return err
		}
		// Every arc the rank generated must be stored or suppressed as a
		// replayed duplicate: a block a sink dropped without an error would
		// otherwise be a silent partial result. Each rank checks its own
		// count, so no other rank's error can cancel it out.
		if w.generated != w.stored+skipped {
			return fmt.Errorf("dist: rank %d imbalance: generated %d arcs, stored %d, skipped %d", rk.ID(), w.generated, w.stored, skipped)
		}
		return nil
	})
	if classes != nil {
		atomic.AddInt64(&c.stats.ArcsCompacted, classes.copied)
	}
	return err
}

// walk is one rank's Expand stage in one attempt. A block costs the kernel
// call, the sink call and one atomic load (cluster.stop).
type walk struct {
	rk      *Rank
	as      *fencedRankSink
	faults  *faultState // nil unless the run is fault-armed
	batch   int
	scratch []graph.Edge
	own     *ownedRows // a source owner's pick; nil otherwise

	generated, stored          int64
	blocks                     uint32 // placed, for the context poll
	sinkErr, crashErr, stopErr error
}

// contextPoll is how many blocks apart a walk reads the run's context, which
// is where a caller's cancellation arrives (the package's own cancels raise
// the stop flag): 64 blocks of 1024 arcs are a few microseconds. A
// context.AfterFunc raising the flag would instead wait, on one P, for the
// walking goroutine to be preempted (≈ 10 ms), longer than a small run.
const contextPoll = 64

// tiles walks each A-arc of each tile against the tile's tail factors, a
// block at a time into place, and stops when place refuses one. A block is
// the cursor's next ≤ batch arcs (ExpandNext), or under a source owner the
// next ≤ batch owned arcs of the sweep (ownedRows). The tail is folded
// lazily through a core.TailCursor at every depth, in lexicographic CSR
// order — kernel_test.go holds every depth to the per-edge reference.
func (w *walk) tiles(tiles []Tile) {
	var cur *core.TailCursor // one per tail: a source owner's rank walks R tiles of one
	var tail []*graph.Graph
	for ti := range tiles {
		t := &tiles[ti]
		// rem is the tile's windowed arc budget; Skip locates the start
		// position arithmetically (A-arc index + in-tail offset) so the
		// skipped prefix is never generated — the seek cost is independent
		// of Skip's magnitude.
		rem := t.Arcs()
		if rem == 0 {
			continue
		}
		if !slices.Equal(tail, t.Tail) {
			cur, tail = core.NewTailCursor(t.Tail), t.Tail
		}
		w.rk.setPhase(expandLabels)
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
				var n int64
				if w.own != nil {
					n = w.own.sweep(t, cur, uBase, vBase, rem)
					for block := w.own.next(); len(block) > 0; block = w.own.next() {
						if !w.place(t.ID, block) {
							return
						}
					}
				} else {
					block := cur.ExpandNext(uBase, vBase, w.scratch, int(min(rem, int64(w.batch))))
					w.scratch = block[:0]
					if len(block) > 0 && !w.place(t.ID, block) {
						return
					}
					n = int64(len(block))
				}
				if n == 0 {
					break
				}
				rem -= n
			}
		}
	}
}

// place stores one block and reports whether the walk goes on. A crash due
// inside the block fires after the arcs before it are stored, and cancels
// the run at once.
func (w *walk) place(tile int, block []graph.Edge) bool {
	var crash error
	if w.faults != nil {
		var n int64
		n, crash = w.faults.crashWithin(w.rk.id, FaultMidExpansion, int64(len(block)))
		block = block[:n]
	}
	w.generated += int64(len(block))
	if len(block) > 0 && !w.deliver(tile, block) {
		return false
	}
	if crash != nil {
		w.crashErr = crash
		w.rk.c.cancel(crash)
		return false
	}
	// A walk blocks on nothing, so it would never notice teardown otherwise.
	// The poll only reads the context: every rank polls the same one, and
	// Err would take its lock.
	stop := w.rk.c.stop.Load()
	if w.blocks++; !stop && w.blocks%contextPoll == 0 {
		select {
		case <-w.rk.c.ctx.Done():
			stop = true
		default:
		}
	}
	if stop {
		w.stopErr = context.Cause(w.rk.c.ctx)
		return false
	}
	return true
}

// deliver hands one block to the rank's sink; a sink error cancels the run,
// which stops the other ranks' walks.
func (w *walk) deliver(tile int, edges []graph.Edge) bool {
	n, err := w.as.storeBlock(tile, edges)
	w.stored += n
	if err != nil {
		w.sinkErr = err
		w.rk.c.cancel(err)
		return false
	}
	return true
}
