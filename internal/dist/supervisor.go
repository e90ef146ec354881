package dist

// Run supervision: the one attempt protocol every engine run uses — in
// process, cluster worker or cluster head, fault-armed or clean, with a
// retry budget of zero or more. The paper's expansion is embarrassingly
// parallel over factor tile pairs, so a crashed rank's work is safely
// re-executable — the detect-and-reexecute posture MapReduce-lineage
// systems take for idempotent partitioned work:
//
//   - Checkpoints are tile-level and deterministic: for each plan tile
//     the table (checkpoints) tracks how many of its edges each rank's
//     sink has durably stored. A tile is committed once the stored total
//     reaches its known ground-truth arc count (Tile.Arcs — computable up
//     front, in the paper's spirit of properties known before generation).
//   - Every rank's sink has one lifetime (rankHost): created in the
//     rank's first attempt, fed tile-framed blocks through the fence (an
//     empty skip table on attempt 0), closed exactly once after the last
//     attempt.
//   - On a recoverable fault (RankCrashError, MessageLostError, PeerError)
//     the failed attempt's partial progress is harvested, the faulty rank
//     is respawned — or, with Recovery.Reassign, stripped of its unfinished
//     tiles, which are moved round-robin to the survivors — and the
//     uncommitted tiles are replayed after an exponential backoff.
//   - Replay is exactly-once by deterministic prefix deduplication: a
//     tile's expansion order is fixed, owner routing is pure, and
//     per-sender channel delivery is FIFO, so the substream of a tile
//     arriving at one rank is identical across attempts and the stored
//     count is always a prefix of it. Each attempt the fenced sinks
//     suppress exactly that prefix, and the epoch fence in exchangeBlocks
//     drops any straggler batch from a previous attempt outright.
//   - With the budget exhausted — at once when Recovery.MaxRetries is
//     zero — the last fault is returned unchanged.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/graph"
)

// tileState is the checkpoint record of one plan tile.
type tileState struct {
	tile  Tile
	owner int // rank currently assigned to expand the tile
	// stored[d] counts the tile's edges durably stored by rank d's sink —
	// the destination rank under owner routing, the producing rank on
	// unrouted runs. Written only between attempts.
	stored    []int64
	committed bool
}

func (ts *tileState) storedTotal() int64 {
	var t int64
	for _, n := range ts.stored {
		t += n
	}
	return t
}

// checkpoints is a run's tile checkpoint table, owned by whoever drives
// the attempts: Run in process, the head in cluster mode (which also
// journals it to the ledger). It is touched only between attempts.
type checkpoints struct {
	routed bool
	tiles  []*tileState // plan order: by planned rank, then position
	byID   map[int]*tileState
}

func newCheckpoints(p Plan, routed bool) *checkpoints {
	cp := &checkpoints{routed: routed, byID: make(map[int]*tileState)}
	for rk, ts := range p.Tiles {
		for _, t := range ts {
			st := &tileState{tile: t, owner: rk, stored: make([]int64, p.R)}
			cp.tiles = append(cp.tiles, st)
			cp.byID[t.ID] = st
		}
	}
	return cp
}

// recommit recomputes every tile's commitment from its stored counts.
// Never sticky: a tile whose edges lived on a process that died
// un-commits and replays.
func (cp *checkpoints) recommit() {
	for _, ts := range cp.tiles {
		ts.committed = ts.storedTotal() == ts.tile.Arcs()
	}
}

// harvest folds one attempt report's newly stored per-(rank, tile) counts
// into the table. Partial progress from a failed attempt counts: those
// edges reached the sinks before the teardown.
func (cp *checkpoints) harvest(stored map[int]map[int]int64) {
	for rk, m := range stored {
		for id, n := range m {
			cp.byID[id].stored[rk] += n
		}
	}
}

// zeroRanks forgets everything stored at ranks [lo, hi): a dead process's
// durable output dies with it (a respawned ShardWriter truncates its
// shard on open).
func (cp *checkpoints) zeroRanks(lo, hi int) {
	for _, ts := range cp.tiles {
		for d := lo; d < hi; d++ {
			ts.stored[d] = 0
		}
	}
}

// assign recomputes commitment and returns the next attempt's work: the
// uncommitted tile IDs per rank, and the prefix each rank's fence must
// suppress per tile. Routed runs skip per (tile, destination); unrouted
// runs skip the tile's full stored total at its current producer
// (previously stored edges may live in another rank's sink after
// reassignment — verification merges per-rank outputs, so placement does
// not matter, only the count).
func (cp *checkpoints) assign() (tiles map[int][]int, skip map[int]map[int]int64) {
	cp.recommit()
	tiles = make(map[int][]int)
	skip = make(map[int]map[int]int64)
	addSkip := func(rank, tile int, n int64) {
		if n == 0 {
			return
		}
		if skip[rank] == nil {
			skip[rank] = make(map[int]int64)
		}
		skip[rank][tile] = n
	}
	for _, ts := range cp.tiles {
		if ts.committed {
			continue
		}
		tiles[ts.owner] = append(tiles[ts.owner], ts.tile.ID)
		if cp.routed {
			for d, n := range ts.stored {
				addSkip(d, ts.tile.ID, n)
			}
		} else {
			addSkip(ts.owner, ts.tile.ID, ts.storedTotal())
		}
	}
	return tiles, skip
}

// reassign moves the blamed rank's uncommitted tiles round-robin to the
// other r-1 ranks (Recovery.Reassign) and returns how many moved.
func (cp *checkpoints) reassign(blame, r int) int64 {
	if r < 2 {
		return 0
	}
	cp.recommit()
	var moved int64
	rr := 0
	for _, ts := range cp.tiles {
		if ts.committed || ts.owner != blame {
			continue
		}
		if rr == blame {
			rr = (rr + 1) % r
		}
		ts.owner = rr
		rr = (rr + 1) % r
		moved++
	}
	return moved
}

// fencedRankSink is the engine's per-rank sink: it suppresses the
// already-stored prefix of each tile's substream (nothing on a first
// attempt) and keeps the underlying RankSink open across attempts. All
// per-attempt state is touched by one goroutine at a time — the rank's
// body within an attempt, the rankHost between attempts, with
// happens-before through RunContext's spawn and join.
type fencedRankSink struct {
	rank  int
	under RankSink        // created lazily once, reused across attempts
	bs    BlockStorer     // under's block fast path, when it has one
	tbs   TileBlockStorer // preferred over bs when under needs tile framing

	skip    map[int]int64 // remaining prefix to suppress this attempt, per tile
	stored  map[int]int64 // edges newly stored this attempt, per tile
	skipped int64         // duplicates suppressed this attempt

	// Hot-path cache of the current tile's counters; batches arrive
	// tile-framed, so tile switches are rare and the per-batch cost is an
	// int compare instead of two map lookups.
	curTile int
	curSkip int64
	curNew  int64

	// The host allocates its ranks' sinks back to back and every rank
	// writes curNew once per block; the pad keeps two ranks' counters off
	// one cache line.
	_ [64]byte
}

func (f *fencedRankSink) setTile(tile int) {
	f.flushCur()
	f.curTile = tile
	f.curSkip = f.skip[tile]
	f.curNew = 0
}

func (f *fencedRankSink) flushCur() {
	if f.curTile >= 0 {
		f.skip[f.curTile] = f.curSkip
		f.stored[f.curTile] += f.curNew
	}
	f.curTile = -1
}

// storeBlock accepts one tile-framed batch of owned edges and reports how
// many of them the underlying sink stored (fewer than len(edges): a
// replayed prefix was suppressed, or a store failed partway — checkpoint
// accounting needs the exact count either way). Batching preserves
// substream order, so the replayed prefix is simply the leading
// min(curSkip, len) edges of however many batches it spans; the remainder
// goes through the sink's block fast path when it has one. The block
// aliases an engine buffer recycled after the call returns.
func (f *fencedRankSink) storeBlock(tile int, edges []graph.Edge) (int64, error) {
	if tile != f.curTile {
		f.setTile(tile)
	}
	if f.curSkip > 0 {
		n := int64(len(edges))
		if n > f.curSkip {
			n = f.curSkip
		}
		f.curSkip -= n
		f.skipped += n
		edges = edges[n:]
		if len(edges) == 0 {
			return 0, nil
		}
	}
	var stored int64
	var err error
	if f.tbs != nil {
		stored, err = f.tbs.StoreTileBlock(tile, edges)
	} else if f.bs != nil {
		stored, err = f.bs.StoreBlock(edges)
	} else {
		for _, e := range edges {
			if err = f.under.Store(e); err != nil {
				break
			}
			stored++
		}
	}
	f.curNew += stored
	return stored, err
}

// endAttempt runs on the rank's goroutine after its exchange (or direct
// expansion) has finished — even on teardown — and returns the duplicates
// suppressed this attempt, the balance collective's adjustment. The
// underlying sink stays open.
func (f *fencedRankSink) endAttempt() int64 {
	f.flushCur()
	return f.skipped
}

// rankHost is one process's share of a run across attempts: the sinks of
// its local ranks [lo, hi) — every rank of an in-process run — and what
// they have stored so far.
type rankHost struct {
	cfg    Config
	lo, hi int
	byID   map[int]Tile
	sinks  []*fencedRankSink // local ranks, indexed rank-lo

	// cum is this process's cumulative per-(rank, tile) stored prefixes
	// across all attempts — the floor under every fence it is asked to
	// arm, and the durable truth a cluster worker announces in its join
	// message after every control (re)dial. It is what keeps delivery
	// exactly-once across a head generation change: a respawned head's
	// ledger may lag the worker's shards, but the worker never fences
	// below what it already stored.
	cum map[int]map[int]int64
}

func newRankHost(cfg Config, lo, hi int) *rankHost {
	h := &rankHost{cfg: cfg, lo: lo, hi: hi,
		byID:  make(map[int]Tile),
		sinks: make([]*fencedRankSink, hi-lo),
		cum:   make(map[int]map[int]int64, hi-lo)}
	for _, tiles := range cfg.Plan.Tiles {
		for _, t := range tiles {
			h.byID[t.ID] = t
		}
	}
	for i := range h.sinks {
		h.sinks[i] = &fencedRankSink{rank: lo + i, curTile: -1}
		h.cum[lo+i] = make(map[int]int64)
	}
	return h
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
	}
	return f, nil
}

// resolveTiles turns a tile-ID assignment into the engine's per-rank tile
// arrays (local ranks only — runAttempt never touches remote ranks'
// entries).
func (h *rankHost) resolveTiles(ids map[int][]int) ([][]Tile, error) {
	assigned := make([][]Tile, h.cfg.Plan.R)
	for rk := h.lo; rk < h.hi; rk++ {
		for _, id := range ids[rk] {
			t, ok := h.byID[id]
			if !ok {
				return nil, fmt.Errorf("dist: assignment names unknown tile %d", id)
			}
			assigned[rk] = append(assigned[rk], t)
		}
	}
	return assigned, nil
}

// attempt runs one epoch of the engine for the local ranks on c: resolve
// the assignment, arm the fences, run, harvest what each sink newly
// stored per tile. The returned report is what a cluster worker sends to
// the head and what Run and the head fold directly.
func (h *rankHost) attempt(ctx context.Context, c *Cluster, epoch int64, ids map[int][]int, skip map[int]map[int]int64) ctrlMsg {
	rep := ctrlMsg{Kind: ctrlReport, Epoch: epoch}
	assigned, err := h.resolveTiles(ids)
	if err != nil {
		rep.fail(err)
		return rep
	}
	for _, f := range h.sinks {
		f.skip = make(map[int]int64, len(skip[f.rank]))
		for id, n := range skip[f.rank] {
			f.skip[id] = n
		}
		// Fence floor: never below what this process already stored.
		for id, n := range h.cum[f.rank] {
			if n > f.skip[id] {
				f.skip[id] = n
			}
		}
		f.stored = make(map[int]int64)
		f.skipped = 0
		f.curTile = -1
	}
	// Written strictly between attempts: the previous attempt's goroutines
	// are joined, and RunContext's spawns order this write before the next
	// attempt's reads in send and exchangeBlocks.
	c.epoch = epoch
	r := h.cfg.Plan.R
	perGen := make([]int64, r)
	perStored := make([]int64, r)
	err = runAttempt(ctx, c, h.cfg.Owner, assigned, h.sinkFor, perGen, perStored, h.cfg.batchSize())
	st := c.Stats()

	rep.Stored = make(map[int]map[int]int64, len(h.sinks))
	rep.Gen = make(map[int]int64, len(h.sinks))
	rep.StoredN = make(map[int]int64, len(h.sinks))
	rep.Traffic = trafficStats{
		Generated: st.EdgesGenerated, Routed: st.EdgesRouted,
		Bytes: st.BytesSent, Messages: st.Messages,
		Stale: st.StaleBatches, MaxDepth: st.MaxInboxDepth,
	}
	for _, f := range h.sinks {
		m := make(map[int]int64, len(f.stored))
		for id, n := range f.stored {
			if n > 0 {
				m[id] = n
				h.cum[f.rank][id] += n
			}
		}
		rep.Stored[f.rank] = m
		rep.Skipped += f.skipped
		rep.Gen[f.rank] = perGen[f.rank]
		rep.StoredN[f.rank] = perStored[f.rank]
	}
	rep.fail(err)
	return rep
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

// classify splits run errors into recoverable faults with a blamed rank
// (a crashed rank, the sender of a lost message, or a rank the failure
// detector declared partitioned or dead) and everything else — a sink
// error, a handshake refusal, a bad plan stay loud. A PeerError is
// recoverable because Reset heals the simulated partition and a cluster
// replay builds a fresh mesh, while the blamed rank's uncommitted tiles
// are replayed exactly-once like any other fault's.
func classify(err error) (int, bool) {
	var rc *RankCrashError
	if errors.As(err, &rc) {
		return rc.Rank, true
	}
	var ml *MessageLostError
	if errors.As(err, &ml) {
		return ml.From, true
	}
	var pe *transport.PeerError
	if errors.As(err, &pe) {
		return pe.Proc, true
	}
	return 0, false
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

// Run executes the Plan→Expand→Route→Sink engine: every rank expands its
// planned tiles through the blocked kernel (core.TailCursor.ExpandNext,
// one head arc against the tile's tail, ≤ BatchSize arcs per block),
// routes whole blocks through Config.Owner over the batched exchange (or
// locally when Owner is nil), and hands owned edge batches to its
// RankSink — via BlockStorer when the sink implements it, per-edge Store
// otherwise.
//
// Cancelling ctx tears the run down mid-exchange on every rank; the first
// real error (a failed sink, or the cancellation cause) is returned.
//
// One cluster is reused across up to 1+MaxRetries attempts (Reset between
// them), with the attempt number as the transport epoch: a rank crash or
// lost message triggers a bounded-backoff replay from tile-level
// checkpoints, with the fenced sinks keeping delivery exactly-once; with
// no budget left the fault is returned unchanged. Stats aggregate across
// attempts — generated and traffic counters include replayed work, stored
// counts stay exactly-once — and the recovery counters (RetriesPerRank,
// TilesReassigned, RecoveredRuns, DuplicatesSkipped) record what recovery
// did.
func Run(ctx context.Context, cfg Config) (Stats, error) {
	p := cfg.Plan
	c, err := NewCluster(p.R)
	if err != nil {
		return Stats{}, err
	}
	if cfg.Faults != nil {
		c.InjectFaults(*cfg.Faults)
	}
	cp := newCheckpoints(p, cfg.Owner != nil)
	host := newRankHost(cfg, 0, p.R)
	agg := newRunStats(p.R)
	var runErr error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			c.Reset()
		}
		ids, skip := cp.assign()
		rep := host.attempt(ctx, c, int64(attempt), ids, skip)
		foldReport(&agg, &rep)
		cp.harvest(rep.Stored)
		if runErr = rep.err; runErr == nil {
			if attempt > 0 {
				agg.RecoveredRuns = 1
			}
			break
		}
		blame, recoverable := classify(runErr)
		if !recoverable || attempt >= cfg.MaxRetries {
			break
		}
		agg.RetriesPerRank[blame]++
		if cfg.Reassign {
			agg.TilesReassigned += cp.reassign(blame, p.R)
		}
		if err := sleepCtx(ctx, backoff(cfg.Backoff, attempt+1)); err != nil {
			runErr = err
			break
		}
	}
	if cerr := host.finalize(); runErr == nil {
		runErr = cerr
	}
	// Drain any stale inbox residue the last attempt left behind, then
	// snapshot the leak probe: a run must hand back every pooled buffer no
	// matter how many attempts it took.
	c.Reset()
	agg.OutstandingBufs = c.outstandingBufs()
	return agg, runErr
}
