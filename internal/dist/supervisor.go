package dist

// Run supervision: what the one attempt loop (runClusterHead, of which Run
// is the one-process case) drives — the tile checkpoint table, the
// per-rank sinks that outlive attempts, and the per-process host that runs
// an epoch. The paper's expansion is embarrassingly parallel over factor
// tile pairs, so a crashed rank's work is safely re-executable — the
// detect-and-reexecute posture MapReduce-lineage systems take for
// idempotent partitioned work:
//
//   - Checkpoints are tile-level and deterministic: each rank's sink counts
//     how many of each tile's edges it has durably stored
//     (fencedRankSink.stored), and every report carries those counts to
//     the head's table (checkpoints). A tile is committed once the stored
//     total reaches its known ground-truth arc count (Plan.Arcs —
//     computable up front, in the paper's spirit of properties known
//     before generation).
//   - Every rank's sink has one lifetime (rankHost): created in the
//     rank's first attempt, fed tile-framed blocks by every attempt,
//     closed exactly once after the last attempt.
//   - On a recoverable fault (a RankCrashError, or a process that died)
//     the failed attempt's partial progress counts, the failed rank
//     is respawned, and the uncommitted tiles are replayed after an
//     exponential backoff — each on the ranks the plan gave it: placement is
//     decided once, from the plan and the owner, and no attempt moves a tile.
//   - Replay is exactly-once by seeking: a tile's expansion order is
//     fixed, the owner map is pure, and a rank generates the arcs it stores
//     itself, in that order, so the substream of a tile reaching one rank's
//     sink is identical across attempts and the stored count is always a
//     prefix of it. Each attempt a rank resumes every tile at its own
//     sink's count (walk.tiles) and generates none of it again. Nothing
//     crosses a rank boundary, so no straggler of an earlier attempt can
//     reach a sink.
//   - With the budget exhausted — at once when Recovery.MaxRetries is
//     zero — the last fault is returned unchanged.

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/graph"
)

// tileState is the checkpoint record of one plan tile.
type tileState struct {
	tile  Tile
	arcs  int64 // the tile's arc count (Plan.Arcs)
	owner int   // the rank the plan gave the tile
	// stored[d] is what rank d's process last said its sink durably stored
	// of the tile — the owning rank under an owner map, the planned rank on
	// runs without one. Written only between attempts.
	stored []int64
}

func (ts *tileState) storedTotal() int64 {
	var t int64
	for _, n := range ts.stored {
		t += n
	}
	return t
}

// checkpoints is a run's tile checkpoint table, owned by the attempt loop.
// It decides commitment and nothing else: where a rank resumes a tile is
// its own process's count (fencedRankSink.stored). It is touched only
// between attempts.
type checkpoints struct {
	tiles []*tileState // plan order: by planned rank, then position
	byID  map[int]*tileState
}

func newCheckpoints(p Plan) *checkpoints {
	cp := &checkpoints{byID: make(map[int]*tileState)}
	for rk, ts := range p.Tiles {
		for _, t := range ts {
			st := &tileState{tile: t, arcs: p.Arcs(t), owner: rk, stored: make([]int64, p.R)}
			cp.tiles = append(cp.tiles, st)
			cp.byID[t.ID] = st
		}
	}
	return cp
}

// set makes ranks [lo, hi) hold what their process says they stored: abs
// is absolute per (rank, tile), from a join or a report, and nil for a
// process that died — its durable output died with it (a respawned
// ShardWriter truncates its shard on open). A process speaks only for its
// own ranks: other ranks and tiles the plan does not have are ignored.
func (cp *checkpoints) set(lo, hi int, abs map[int]map[int]int64) {
	for _, ts := range cp.tiles {
		for d := lo; d < hi; d++ {
			ts.stored[d] = abs[d][ts.tile.ID]
		}
	}
}

// assign returns the next attempt's work: the uncommitted tile IDs per
// planned rank, in plan order (under a source owner only their union
// matters: every rank walks it, see rankHost.resolveTiles). Commitment is
// recomputed every time, never sticky: a tile whose edges lived on a
// process that died un-commits and replays.
func (cp *checkpoints) assign() map[int][]int {
	tiles := make(map[int][]int)
	for _, ts := range cp.tiles {
		if ts.storedTotal() != ts.arcs {
			tiles[ts.owner] = append(tiles[ts.owner], ts.tile.ID)
		}
	}
	return tiles
}

// fencedRankSink is the engine's per-rank sink: it keeps the underlying
// RankSink open across attempts, hands each block to its fastest path and
// counts what it stored per tile. A replay never reaches it with an arc it
// already stored: the walk resumes each tile at that count (walk.tiles).
// All its state is touched by one goroutine at a time — the rank's body
// within an attempt, the rankHost between attempts, with happens-before
// through RunContext's spawn and join.
type fencedRankSink struct {
	rank  int
	under RankSink          // created lazily once, reused across attempts
	bs    BlockStorer       // under's block fast path, when it has one
	tbs   TileBlockStorer   // preferred over bs when under needs tile framing
	pbs   PackedBlockStorer // under's packed path; without it blocks are widened into wide
	wide  []graph.Edge      // the widened block: from edgeBufs at the attempt's first widening, back at endAttempt

	// stored counts the edges the sink stored per tile, across every
	// attempt: where a replay resumes each tile, and the truth this
	// process announces for the rank in every join and report.
	stored map[int]int64

	// Hot-path cache of the current tile's count; batches arrive
	// tile-framed, so tile switches are rare and the per-batch cost is an
	// int compare instead of a map lookup.
	curTile int
	curNew  int64

	// The host allocates its ranks' sinks back to back and every rank
	// writes curNew once per block; the pad keeps two ranks' counters off
	// one cache line.
	_ [64]byte
}

func (f *fencedRankSink) flushCur() {
	if f.curTile >= 0 {
		f.stored[f.curTile] += f.curNew
	}
	f.curTile = -1
}

// store hands one block, its arcs relative to (u0, v0), to the sink's
// fastest path — whole to StorePackedBlock, else widened into the sink's
// own block (wide) for StoreTileBlock, StoreBlock, else Store per edge —
// and reports how many of the arcs it stored (fewer than len(arcs) when a
// store failed partway: checkpoint accounting needs the exact count). The
// block aliases an engine buffer recycled after the call returns.
func (f *fencedRankSink) store(tile int, arcs []uint64, u0, v0 int64) (stored int64, err error) {
	if tile != f.curTile {
		f.flushCur()
		f.curTile, f.curNew = tile, 0
	}
	if f.pbs != nil {
		stored, err = f.pbs.StorePackedBlock(tile, arcs, u0, v0)
		f.curNew += stored
		return stored, err
	}
	if f.wide == nil {
		f.wide = edgeBufs.get(len(arcs))
	}
	f.wide = core.ExpandPacked(f.wide[:0], arcs, u0, v0)
	switch {
	case f.tbs != nil:
		stored, err = f.tbs.StoreTileBlock(tile, f.wide)
	case f.bs != nil:
		stored, err = f.bs.StoreBlock(f.wide)
	default:
		for _, e := range f.wide {
			if err = f.under.Store(e); err != nil {
				break
			}
			stored++
		}
	}
	f.curNew += stored
	return stored, err
}

// endAttempt runs on the rank's goroutine after its walk has finished —
// even on teardown — and returns the widened block to edgeBufs. The
// underlying sink stays open.
func (f *fencedRankSink) endAttempt() {
	f.flushCur()
	if f.wide != nil {
		edgeBufs.put(f.wide)
		f.wide = nil
	}
}

// rankHost is one process's share of a run across attempts: the sinks of
// its local ranks [lo, hi) — every rank of an in-process run — with what
// they have stored so far, and the cluster every attempt runs on.
type rankHost struct {
	cfg    Config
	cc     ClusterConfig
	lo, hi int
	byID   map[int]Tile
	sinks  []*fencedRankSink // local ranks, indexed rank-lo

	// bySource is the owner's source form for the plan (sourceForm), bound
	// once; nil with no owner.
	bySource func(u int64) int

	// local is the process's one cluster, hosting [lo, hi), Reset after
	// every attempt. It holds the process's armed crash schedule (nil when
	// unarmed), built once so that its countdowns are lifetime state.
	local *cluster

	// planHash is set only where a handshake or the ledger reads it: it
	// walks every head arc, and an in-process Run is timed end to end.
	planHash uint64

	bufsOut int64 // leak probe: buffers still checked out after each attempt's Reset
}

func newRankHost(cc ClusterConfig, cfg Config) (*rankHost, error) {
	if err := walkable(cfg.Plan); err != nil {
		return nil, err
	}
	bySource, err := sourceForm(cfg.Owner, cfg.Plan)
	if err != nil {
		return nil, err
	}
	p := cc.Procs[cc.Self]
	c, err := newCluster(cfg.Plan.R, p.Lo, p.Hi)
	if err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		c.faults = newFaultState(*cfg.Faults)
	}
	h := &rankHost{cfg: cfg, cc: cc, lo: p.Lo, hi: p.Hi, local: c, bySource: bySource}
	if len(cc.Procs) > 1 || cc.LedgerPath != "" {
		h.planHash = PlanHash(cfg.Plan)
	}
	h.byID = make(map[int]Tile)
	for _, tiles := range cfg.Plan.Tiles {
		for _, t := range tiles {
			h.byID[t.ID] = t
		}
	}
	h.sinks = make([]*fencedRankSink, h.hi-h.lo)
	for i := range h.sinks {
		h.sinks[i] = &fencedRankSink{rank: h.lo + i, curTile: -1, stored: make(map[int]int64)}
	}
	return h, nil
}

// sinkFor is runAttempt's per-rank sink factory: the underlying RankSink
// is created on the rank's first surviving attempt and then reused, so a
// replay appends to the same durable output.
func (h *rankHost) sinkFor(rk *Rank) (*fencedRankSink, error) {
	f := h.sinks[rk.ID()-h.lo]
	if f.under == nil {
		rs, err := h.cfg.Sink.Rank(rk)
		if err != nil {
			return nil, err
		}
		f.under = rs
		f.bs, _ = rs.(BlockStorer)
		f.tbs, _ = rs.(TileBlockStorer)
		f.pbs, _ = rs.(PackedBlockStorer)
	}
	return f, nil
}

// resolveTiles turns a tile-ID assignment into the engine's per-rank tile
// arrays (local ranks only — runAttempt never touches remote ranks'
// entries). Under an owner every rank generates its own share of every
// tile, so each local rank gets the whole assignment (the begin message
// carries all ranks' IDs) in tile-ID order, whoever it names.
func (h *rankHost) resolveTiles(ids map[int][]int) ([][]Tile, error) {
	assigned := make([][]Tile, h.cfg.Plan.R)
	ownerSide := h.cfg.Owner != nil
	for rk, list := range ids {
		if ownerSide {
			rk = h.lo
		} else if rk < h.lo || rk >= h.hi {
			continue
		}
		for _, id := range list {
			t, ok := h.byID[id]
			if !ok {
				return nil, fmt.Errorf("dist: assignment names unknown tile %d", id)
			}
			assigned[rk] = append(assigned[rk], t)
		}
	}
	if ownerSide {
		all := assigned[h.lo]
		sort.Slice(all, func(i, j int) bool { return all[i].ID < all[j].ID })
		for rk := h.lo; rk < h.hi; rk++ {
			assigned[rk] = all
		}
	}
	return assigned, nil
}

// attempt runs one epoch of the engine for the local ranks: resolve the
// assignment, run — each rank resuming every tile at what its sink stored —
// and Reset the cluster. The returned report is what a cluster worker sends
// to the head and what the head folds directly.
func (h *rankHost) attempt(ctx context.Context, epoch int64, ids map[int][]int) ctrlMsg {
	// Stored aliases the sinks' counts, so even a report of an attempt that
	// never ran carries what this process holds.
	rep := ctrlMsg{Kind: ctrlReport, Epoch: epoch, Stored: h.storedCounts()}
	assigned, err := h.resolveTiles(ids)
	if err != nil {
		rep.fail(err)
		return rep
	}
	c := h.local
	held := c.outstandingBufs()
	r := h.cfg.Plan.R
	perGen := make([]int64, r)
	perStored := make([]int64, r)
	err = runAttempt(ctx, c, h.cfg.Plan, h.cfg.Owner, h.bySource, assigned, h.sinkFor, perGen, perStored, h.cfg.batchSize())
	st := c.Stats()

	rep.Gen = make(map[int]int64, len(h.sinks))
	rep.StoredN = make(map[int]int64, len(h.sinks))
	// The placing counters are one count per pick and the arcs copied into
	// OwnerBySource's classes, under every owner (Stats).
	rep.Traffic = trafficStats{
		Generated:  st.EdgesGenerated,
		RowsTested: st.OwnerRowsTested, Compacted: st.ArcsCompacted,
	}
	for _, f := range h.sinks {
		rep.Gen[f.rank] = perGen[f.rank]
		rep.StoredN[f.rank] = perStored[f.rank]
	}
	rep.fail(err)
	c.Reset()
	h.bufsOut += c.outstandingBufs() - held
	return rep
}

// storedCounts is what this process's sinks have stored, per (rank, tile),
// absolute: the Stored of every join and report it sends. It aliases the
// sinks' counts, so it is read before the next attempt runs.
func (h *rankHost) storedCounts() map[int]map[int]int64 {
	m := make(map[int]map[int]int64, len(h.sinks))
	for _, f := range h.sinks {
		m[f.rank] = f.stored
	}
	return m
}

// finalize closes every locally created RankSink exactly once, after the
// last attempt. Ranks whose sink was never created (every attempt died
// before setup) have nothing to close.
func (h *rankHost) finalize() error {
	var first error
	for _, f := range h.sinks {
		if f.under == nil {
			continue
		}
		if err := f.under.Close(); err != nil && first == nil {
			first = err
		}
		f.under = nil
	}
	return first
}

// classify splits an attempt's errors into a crashed rank, recoverable and
// blamed, and everything else (-1) — a sink error, an imbalance, a bad plan
// stay loud. A process that died is the head's to blame (runClusterHead):
// no attempt holds a link to another process.
func classify(err error) (int, bool) {
	var rc *RankCrashError
	if errors.As(err, &rc) {
		return rc.Rank, true
	}
	return -1, false
}

// maxBackoff caps the exponential backoff so a large retry budget cannot
// stall a run for minutes.
const maxBackoff = time.Second

// backoff returns the delay before the given retry (1-based):
// base·2^(retry-1), capped at maxBackoff; no base, no delay.
func backoff(base time.Duration, retry int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base << (retry - 1)
	if d <= 0 || d > maxBackoff {
		d = maxBackoff
	}
	return d
}

// sleepCtx waits d; a cancelled ctx cuts the wait short — or skips it —
// and returns its cause.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if err := context.Cause(ctx); err != nil || d <= 0 {
		return err
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// Run executes the Plan→Expand→Place→Sink engine: every rank expands
// tiles through the blocked kernel (core.TailCursor, one head arc against
// the tile's tail, ≤ BatchSize arcs per block) — its planned tiles, or under
// an owner its own rows of every tile — and hands the blocks to its
// RankSink: packed, via PackedBlockStorer.StorePackedBlock, when the sink
// implements it, else widened into graph.Edges for StoreTileBlock,
// StoreBlock or per-edge Store.
//
// Cancelling ctx stops every rank at its next block; the first real error
// (a failed sink, or the cancellation cause) is returned.
//
// Run is RunCluster with one process and no ledger: one cluster is reused
// across up to 1+MaxRetries attempts (Reset between them). A rank crash
// triggers a bounded-backoff replay from tile-level checkpoints, each rank
// resuming every tile at what its sink already stored, so delivery stays
// exactly-once; with no budget left the fault is returned unchanged. Stats
// aggregate across attempts — a replay generates nothing it stored, so
// generated counters equal stored ones (see Stats) — and the recovery
// counters record what recovery did.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	return RunCluster(ctx, ClusterConfig{Procs: []transport.Proc{{Hi: cfg.Plan.R}}}, cfg)
}
