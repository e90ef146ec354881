package dist

import (
	"context"
	"fmt"
	"math/bits"
	"runtime/pprof"
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
// phase=filter OwnerBySource's partition of the innermost factor into
// classes (newPlacing, under pprof.Do before the ranks start), and
// phase=store a rank blocked in a sink hand-off.
var (
	expandLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "expand"))
	storeLabels  = pprof.WithLabels(context.Background(), pprof.Labels("phase", "store"))
	// sinkFlushLabels marks the async store sink's writer goroutines
	// (sinks.go), so disk-flush time shows up as its own phase instead of
	// blending into the expanding ranks' store samples.
	sinkFlushLabels = pprof.WithLabels(context.Background(), pprof.Labels("phase", "sink-flush"))
)

// Tile is one unit of expansion work: a slice of head-factor arcs crossed
// with the plan's tail (Plan.Tail) — arcs [Lo, Hi) of its first factor's
// ArcSlice, all of them under 1D partitioning and one of T ranges under 2D,
// and the rest of the tail whole. A two-factor product is the chain whose
// tail is [B]. ID is the tile's plan-wide identity: it is stable across run
// attempts, which is what checkpoints and a replay's resume at a stored
// prefix key on — at any chain depth, because the tail expansion order is
// the deterministic lexicographic odometer order of core.TailCursor.
type Tile struct {
	ID     int
	AArcs  []graph.Edge
	Lo, Hi int // the tile's arcs of Plan.Tail[0]

	// Skip and Take window the tile's deterministic expansion stream:
	// the kernel starts Skip arcs into the tile (locating the position in
	// O(1), never generating the skipped prefix) and stops after Take
	// arcs (0 = no cap). Plan.Slice sets them to serve a contiguous
	// range of the global stream; whole-stream plans leave them zero.
	Skip, Take int64
}

// FullArcs returns the number of product arcs tile t of the plan expands
// to unwindowed — deterministic ground truth (|A_t|·(Hi−Lo)·Π_{d>0}|E_{T_d}|).
// It divides the chain's arc count, which PlanChain1D/2D refuse to plan
// unless it fits in int64, so the product here cannot wrap.
func (p Plan) FullArcs(t Tile) int64 {
	n := int64(len(t.AArcs)) * int64(t.Hi-t.Lo)
	for _, g := range p.Tail[1:] {
		n *= g.NumArcs()
	}
	return n
}

// Arcs returns the number of product arcs tile t of the plan generates —
// FullArcs less the Skip prefix, capped by Take. Checkpoints compare
// stored totals against this count, so a windowed tile commits when its
// window (not the whole tile) has been delivered.
func (p Plan) Arcs(t Tile) int64 {
	n := max(p.FullArcs(t)-t.Skip, 0)
	if t.Take > 0 && n > t.Take {
		n = t.Take
	}
	return n
}

// Plan is the decomposition stage of the engine: the per-rank tile lists
// produced by 1D (Sec. III) or 2D (Rem. 1) partitioning of a factor
// chain, over one tail the tiles share. Plans are inert data — building
// one does not start a cluster — so they can be inspected, rebalanced or
// logged before running. Tile IDs are unique within a plan.
type Plan struct {
	R     int
	NC    int64          // product vertex count Π n_d, overflow-checked at build
	Dims  []int64        // per-factor vertex counts (head first)
	Tail  []*graph.Graph // the tail factors A₂…Aₖ ([I₁] for a one-factor chain), held once
	Tiles [][]Tile       // Tiles[rank] is rank's expansion work
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
// int64 is refused here: a wrapped Plan.FullArcs would otherwise plan a
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
// A₁,ρ ⊗ (A₂⊗…⊗Aₖ) — the cut of shape R × 1 (planForChain). Per-rank
// replicated storage is O(|E_A₁|/R + Σ|E_T|) — the tail is held as
// factors, never materialized.
func PlanChain1D(ch *core.Chain, r int) (Plan, error) { return planForChain(ch, r, false) }

// PlanChain2D builds the Rem. 1 decomposition of a chain: the cut of the
// shape H × T, H·T ≤ R, that leaves the busiest rank the fewest arcs
// (shape2D). It keeps ranks busy past 1D's wall of |E_A₁| and reads
// O(|E_A₁|/H + |E_A₂|/T + Σ|E_rest|) factor arcs a rank: Rem. 1's
// per-rank storage term, which here, with the factors held once per
// process, is the working set a rank's walk streams.
func PlanChain2D(ch *core.Chain, r int) (Plan, error) { return planForChain(ch, r, true) }

// planForChain builds the one cut every plan is: H parts of the head's
// arcs crossed with T arc ranges [Lo, Hi) of the first tail factor, both
// at partitionArcs' cuts, and the rest of the tail whole — deeper factors
// are already the smallest replicated state. Rank ρ < H·T expands the one
// tile ID ρ, head part ρ % H crossed with range ⌊ρ/H⌋: the paper's
// C_ρ = A_{ρ%R½} ⊗ B_{⌊ρ/R½⌋} with R½ generalised to H. Ranks past H·T
// are idle. 1D is R × 1; twoD takes shape2D's. A range is index
// arithmetic over the factor's arc count: planning builds no graph and
// reads no tail arc.
func planForChain(ch *core.Chain, r int, twoD bool) (Plan, error) {
	head, tail, err := planFactors(ch, r)
	if err != nil {
		return Plan{}, err
	}
	nB := tail[0].NumArcs()
	h, t := r, 1
	if twoD {
		h, t = shape2D(head.NumArcs(), nB, r)
	}
	// ArcSlice shares the factor's cached flat arc list: tiles only read
	// their head-arc windows, so no per-plan copy is needed.
	parts := partitionArcs(head.ArcSlice(), h)
	tiles := make([][]Tile, r)
	for rk := 0; rk < h*t; rk++ {
		j := int64(rk / h)
		lo, hi := int(j*nB/int64(t)), int((j+1)*nB/int64(t))
		tiles[rk] = []Tile{{ID: rk, AArcs: parts[rk%h], Lo: lo, Hi: hi}}
	}
	return Plan{R: r, NC: ch.NumVertices(), Dims: ch.Index().Dims(), Tail: tail, Tiles: tiles}, nil
}

// shape2D returns the H × T cut of nA head arcs by nB arcs of the first
// tail factor on r ranks, H·T ≤ r, whose busiest tile ⌈nA/H⌉·⌈nB/T⌉
// (partitionArcs' largest parts) is least; ties go to the smaller Rem. 1
// storage term nA/H + nB/T, then to the smaller H. No side is cut into
// more parts than it has arcs — a part past them is empty, and the
// busiest tile stays what it was — so each H takes T = min(⌊r/H⌋, nB):
// more parts never add work.
func shape2D(nA, nB int64, r int) (h, t int) {
	ceil := func(n, p int64) int64 { return (n + p - 1) / p }
	var bh, bt, best int64 = 1, 1, -1
	for hh := int64(1); hh <= min(int64(r), max(nA, 1)); hh++ {
		tt := min(int64(r)/hh, max(nB, 1))
		work := ceil(nA, hh) * ceil(nB, tt)
		if best < 0 || work < best || work == best && lessStorage(nA, nB, hh, tt, bh, bt) {
			bh, bt, best = hh, tt, work
		}
	}
	return int(bh), int(bt)
}

// lessStorage reports nA/h1 + nB/t1 < nA/h2 + nB/t2 exactly: cross
// multiplied in 128 bits.
func lessStorage(nA, nB, h1, t1, h2, t2 int64) bool {
	lh, ll := bits.Mul64(uint64(nA*t1+nB*h1), uint64(h2*t2))
	rh, rl := bits.Mul64(uint64(nA*t2+nB*h2), uint64(h1*t1))
	return lh < rh || lh == rh && ll < rl
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
	// not free: the expansion block is 8 B × BatchSize, packed arcs, and
	// must stay in L1 beside the streaming innermost factor — past 16 KB it
	// leaves and unplaced expansion halves (DefaultBatchSize).
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
// for every chain depth and every product size — into its own sink, in
// packed blocks: each arc a word u | v<<32 relative to the block's base
// (u0, v0), the head arc's offset plus what of the tail's prefix passes 2³²
// vertices. With no owner, the cursor fills a reused scratch block. With
// one (bySource, its source form: sourceForm) every rank walks every tile
// and expands only the rows it owns (ownedRows): nothing is staged,
// batched or sent, at any R. Blocks go to the sink sinkFor returns, and
// each rank resumes every tile at what that sink already stored of it
// (walk.tiles); perGen/perStored get the per-rank counters.
//
// Expansion order is exactly the reference order — head arcs in tile
// order, each crossed with the tail's composed arcs in lexicographic CSR
// order (core.Chain.Arcs) — so what reaches a rank's sink per (tile, rank)
// is the tile's stream filtered by the owner map, in order, byte-identical
// across attempts. That determinism is what tile checkpoints and resuming
// at a stored prefix key on; the step size changes polling granularity,
// never order. A fault-armed run walks the same blocks.
func runAttempt(ctx context.Context, c *cluster, plan Plan, owner Owner, bySource func(u int64) int, tiles [][]Tile, sinkFor func(*Rank) (*fencedRankSink, error), perGen, perStored []int64, batch int) error {
	// Shared by the ranks: the map is pure, and OwnerBySource's class
	// partition is built once and then only read.
	var place *placing
	if bySource != nil && len(plan.Tail) > 0 {
		place = newPlacing(owner, bySource, c.r, plan.Tail)
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
		w := walk{rk: rk, as: as, faults: c.faults, batch: batch, scratch: checkOut(c, &packedBufs, batch)}
		if place != nil {
			w.own = place.rows(rk.ID(), batch)
		}
		w.tiles(plan, tiles[rk.ID()])
		if w.own != nil {
			atomic.AddInt64(&rk.c.stats.OwnerRowsTested, w.own.rows)
		}
		checkIn(c, &packedBufs, w.scratch)
		atomic.AddInt64(&rk.c.stats.EdgesGenerated, w.generated)
		perGen[rk.ID()] = w.generated
		perStored[rk.ID()] = w.stored
		as.endAttempt()
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
		// Every arc the rank generated must be stored: a block a sink
		// dropped without an error would otherwise be a silent partial
		// result. Each rank checks its own count, so no other rank's error
		// can cancel it out.
		if w.generated != w.stored {
			return fmt.Errorf("dist: rank %d imbalance: generated %d arcs, stored %d", rk.ID(), w.generated, w.stored)
		}
		return nil
	})
	if place != nil {
		atomic.AddInt64(&c.stats.ArcsCompacted, place.copied)
	}
	return err
}

// walkable refuses a plan the walk cannot expand: one whose innermost
// factor has more than 2³² vertices — the walk reads that factor's arcs
// packed (core.SourceOf), and such a factor has no packed layout — and,
// as a hand-built plan may name any range, one with a tile whose [Lo, Hi)
// is not a range of the first tail factor's arcs, a tail included.
func walkable(plan Plan) error {
	k := len(plan.Tail)
	if k > 0 && plan.Tail[k-1].NumVertices() > 1<<32 {
		return fmt.Errorf("dist: the plan's innermost factor has %d vertices: the walk packs its ids in 32 bits, so it takes at most 2³²", plan.Tail[k-1].NumVertices())
	}
	for _, ts := range plan.Tiles {
		for _, t := range ts {
			if k == 0 || t.Lo < 0 || t.Lo > t.Hi || int64(t.Hi) > plan.Tail[0].NumArcs() {
				return fmt.Errorf("dist: tile %d's range [%d, %d) is not a range of Plan.Tail[0]'s arcs (the plan has %d tail factors)", t.ID, t.Lo, t.Hi, k)
			}
		}
	}
	return nil
}

// walk is one rank's Expand stage in one attempt, in packed blocks. A block
// costs the kernel call, the sink call and one atomic load (cluster.stop).
type walk struct {
	rk      *Rank
	as      *fencedRankSink
	faults  *faultState // nil unless the run is fault-armed
	batch   int
	scratch []uint64
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

// tiles walks each A-arc of each of the plan's tiles given against the
// tile's part of the plan's tail, a block at a time into place, and stops
// when place refuses one. A block is the cursor's next ≤ batch arcs
// (ExpandNextPacked), or under a source owner the next ≤ batch owned arcs
// of the sweep (ownedRows). Either way its base is the head arc's offset
// plus the cursor's High. The tail is folded lazily through one
// core.TailCursor for the whole walk, windowed to each tile's part, at
// every depth, in lexicographic CSR order — kernel_test.go holds every
// depth to the per-edge reference.
//
// A replay resumes each tile where the rank's sink stopped
// (fencedRankSink.stored), generating none of what it stored. With no
// owner that prefix is a position in the tile's stream, added to Skip;
// under one it counts the rank's owned arcs, which the walk drops from the
// first sweeps' picks before expanding any (ownedRows.drop).
func (w *walk) tiles(plan Plan, tiles []Tile) {
	var cur *core.TailCursor
	for ti := range tiles {
		t := &tiles[ti]
		// rem is the tile's windowed arc budget; skip locates the start
		// position arithmetically (A-arc index + in-tail offset) so the
		// skipped prefix is never generated — the seek cost is independent
		// of skip's magnitude.
		rem, skip := plan.Arcs(*t), t.Skip
		if stored := w.as.stored[t.ID]; w.own != nil {
			w.own.drop = stored
		} else {
			rem -= stored
			skip += stored
		}
		if rem <= 0 {
			continue
		}
		if cur == nil {
			cur = core.NewTailCursor(plan.Tail)
		}
		cur.Window(t.Lo, t.Hi)
		if w.own != nil {
			w.own.window(t.Lo, t.Hi)
		}
		w.rk.setPhase(expandLabels)
		nT := cur.NumVertices()
		nTail := cur.Total()
		aStart := int(skip / nTail)
		tailPos := skip % nTail
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
					n = w.own.sweep(cur, uBase, vBase, rem)
					for block := w.owned(); len(block) > 0; block = w.owned() {
						if !w.place(t.ID, block, w.own.u0, w.own.v0) {
							return
						}
					}
				} else {
					block, uHi, vHi := cur.ExpandNextPacked(w.scratch, int(min(rem, int64(w.batch))))
					w.scratch = block[:0]
					if len(block) > 0 && !w.place(t.ID, block, uBase+uHi, vBase+vHi) {
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

// owned expands the sweep's next ≤ batch owned arcs into the scratch block,
// and returns an empty block once they are all out: the cursor's loop over
// the pick.
func (w *walk) owned() []uint64 {
	o := w.own
	n := min(o.j-o.i, o.batch)
	if n == 0 {
		return nil
	}
	block := core.ExpandSourceTo(w.scratch, o.arcs.Slice(o.i, o.i+n), o.base)
	w.scratch, o.i = block[:0], o.i+n
	return block
}

// place stores one block, its arcs relative to (u0, v0), and reports whether
// the walk goes on. A crash due inside the block fires after the arcs before
// it are stored, and cancels the run at once.
func (w *walk) place(tile int, block []uint64, u0, v0 int64) bool {
	var crash error
	if w.faults != nil {
		var n int64
		n, crash = w.faults.crashWithin(w.rk.id, FaultMidExpansion, int64(len(block)))
		block = block[:n]
	}
	w.generated += int64(len(block))
	if len(block) > 0 && !w.deliver(tile, block, u0, v0) {
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

// deliver hands one block to the rank's sink; a sink error cancels the
// run, which stops the other ranks' walks.
func (w *walk) deliver(tile int, block []uint64, u0, v0 int64) bool {
	n, err := w.as.store(tile, block, u0, v0)
	w.stored += n
	if err != nil {
		w.sinkErr = err
		w.rk.c.cancel(err)
		return false
	}
	return true
}
