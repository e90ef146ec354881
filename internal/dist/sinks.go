package dist

import (
	"context"
	"fmt"
	"runtime/pprof"
	"sync/atomic"

	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// The sinks below never see a retry: a replay resumes every tile at what
// the rank's sink already stored (walk.tiles), and the engine keeps every
// RankSink (supervisor.go's fencedRankSink) open across attempts and
// closes it once, after the run's last attempt, so a sink observes
// exactly the same Store/Close sequence a fault-free run would deliver. "Durable" in the simulation means the Go object
// survives the simulated rank's death — which it does, because a crashed
// rank is a returned goroutine, not a lost process image.

// BlockStorer is an optional RankSink fast path: the engine delivers a
// whole tile-framed batch in one call instead of per-edge Store calls.
// StoreBlock reports how many of the block's edges were durably stored
// before any error — exactly-once checkpoint accounting needs the exact
// count even on a partial failure. The block aliases an engine buffer
// recycled after the call returns; implementations must copy edges they
// retain (append of graph.Edge values copies).
type BlockStorer interface {
	StoreBlock(edges []graph.Edge) (int64, error)
}

// TileBlockStorer is the tile-aware variant of BlockStorer: the engine
// frames deliveries by tile already (batches never mix tiles), and a
// sink that needs the framing — the ordered stream sink flushes at tile
// boundaries so its consumer can interleave ranks in global tile order —
// implements this instead. When a RankSink implements both, the engine
// prefers TileBlockStorer.
type TileBlockStorer interface {
	StoreTileBlock(tile int, edges []graph.Edge) (int64, error)
}

// PackedBlockStorer is the packed variant of TileBlockStorer: the engine
// walks every product in packed blocks — each arc a word w relative to the
// block's base pair, the arc (u0 + uint32(w), v0 + w>>32), half the bytes
// of a graph.Edge — and hands them whole to a sink that implements this;
// core.ExpandPacked(dst, arcs, u0, v0) widens one. To a sink that does not,
// the engine widens each block into graph.Edges first and delivers it
// through StoreTileBlock, StoreBlock or Store, so implementing it is only a
// saving. The count and aliasing contract is BlockStorer's; the arcs are
// the same, in the same order.
type PackedBlockStorer interface {
	StorePackedBlock(tile int, arcs []uint64, u0, v0 int64) (int64, error)
}

// MemorySink collects each rank's owned edges in an in-memory slice —
// the Result-producing sink behind GenerateChain.
type MemorySink struct {
	PerRank [][]graph.Edge
	// Hint, when > 0, pre-sizes each rank's buffer — typically the ideal
	// per-rank share |E_C|/R, which generation plans know exactly up
	// front (the paper's arc count is ground truth before expansion).
	// Skewed owner maps still grow past it by normal append doubling.
	Hint int64
	// Hints, when non-nil, pre-sizes rank i's buffer to Hints[i] and
	// overrides Hint — for owner maps whose exact per-rank loads are
	// ground truth too (product out-degrees factor as
	// deg_C(γ(i,k)) = deg_A(i)·deg_B(k), so source-keyed owners have
	// exactly computable storage; see GenerateChain).
	Hints []int64
}

// NewMemorySink returns a sink for r ranks.
func NewMemorySink(r int) *MemorySink {
	return &MemorySink{PerRank: make([][]graph.Edge, r)}
}

// Rank implements Sink.
func (s *MemorySink) Rank(rk *Rank) (RankSink, error) {
	m := &memRankSink{s: s, id: rk.ID()}
	hint := s.Hint
	if s.Hints != nil {
		hint = s.Hints[rk.ID()]
	}
	if hint > 0 {
		m.buf = make([]graph.Edge, 0, hint)
	}
	return m, nil
}

type memRankSink struct {
	s   *MemorySink
	id  int
	buf []graph.Edge
}

func (m *memRankSink) Store(e graph.Edge) error {
	m.buf = append(m.buf, e)
	return nil
}

// StoreBlock implements BlockStorer: one append per delivered batch.
func (m *memRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	m.buf = append(m.buf, edges...)
	return int64(len(edges)), nil
}

// StorePackedBlock implements PackedBlockStorer: one widening append per
// delivered batch.
func (m *memRankSink) StorePackedBlock(_ int, arcs []uint64, u0, v0 int64) (int64, error) {
	m.buf = core.ExpandPacked(m.buf, arcs, u0, v0)
	return int64(len(arcs)), nil
}

func (m *memRankSink) Close() error {
	m.s.PerRank[m.id] = m.buf
	return nil
}

// CountSink discards edges and counts them — the pure expansion
// throughput sink of experiments E2/E3.
type CountSink struct {
	total int64
}

// Total returns the edges counted across all ranks.
func (s *CountSink) Total() int64 { return atomic.LoadInt64(&s.total) }

// Rank implements Sink.
func (s *CountSink) Rank(rk *Rank) (RankSink, error) {
	return &countRankSink{s: s}, nil
}

type countRankSink struct {
	s *CountSink
	n int64
}

func (c *countRankSink) Store(graph.Edge) error {
	c.n++
	return nil
}

// StoreBlock implements BlockStorer: counting a batch is one add.
func (c *countRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	c.n += int64(len(edges))
	return int64(len(edges)), nil
}

// StorePackedBlock implements PackedBlockStorer: counting a packed batch
// is the same add.
func (c *countRankSink) StorePackedBlock(_ int, arcs []uint64, _, _ int64) (int64, error) {
	c.n += int64(len(arcs))
	return int64(len(arcs)), nil
}

func (c *countRankSink) Close() error {
	atomic.AddInt64(&c.s.total, c.n)
	return nil
}

// StoreSink streams each rank's owned edges to its own shard of an
// on-disk store (one store.ShardWriter per rank), keeping per-rank memory
// O(batch) regardless of |E_C|. Place with an owner map that matches the
// shard layout (OwnerBySource, the store's BySource) so readers can
// address shards; Finalize writes the manifest once the run succeeds.
//
// Flushing is asynchronous: each rank's sink hands whole pooled blocks
// of contiguous 16-byte records to a per-shard writer goroutine
// (phase=sink-flush in profiles), so disk latency overlaps expansion
// instead of stalling it. The handoff queue is bounded — a rank that
// outruns its disk blocks on the enqueue, which is the backpressure. A
// write error is latched and surfaces on the next StoreBlock/Store call
// (tearing the run down through the engine's sink-error path) and again
// at Close, so a failed flush can never silently drop edges.
//
// Exactly-once under recovery: edges count as stored once buffered, and
// both the staging block and the writer goroutine belong to the sink
// instance, which survives run attempts (Close comes after the last) — so
// every edge a checkpoint counted is either on disk or still in this
// pipeline, and a replay resumes past them instead of generating them again.
type StoreSink struct {
	Dir    string
	counts []int64
}

// NewStoreSink returns a sink writing r shards under dir.
func NewStoreSink(dir string, r int) *StoreSink {
	return &StoreSink{Dir: dir, counts: make([]int64, r)}
}

// sinkFlushRecords is the async sink's block size in edges: 4096 records
// is 64 KiB of contiguous bytes per flush — the shard writer's bufio
// size, so blocks pass through to the file in full-buffer writes.
const sinkFlushRecords = 4096

// sinkQueueDepth bounds the blocks in flight between a rank and its
// shard writer. Small on purpose: the queue exists to overlap, not to
// buffer the run — a rank more than sinkQueueDepth blocks ahead of its
// disk blocks on the handoff (backpressure), holding per-rank sink
// memory at O(sinkQueueDepth · sinkFlushRecords).
const sinkQueueDepth = 4

// Rank implements Sink; shard creation errors abort the run on all ranks.
func (s *StoreSink) Rank(rk *Rank) (RankSink, error) {
	sw, err := store.NewShardWriter(s.Dir, rk.ID())
	if err != nil {
		return nil, err
	}
	t := &storeRankSink{s: s, rk: rk, sw: sw,
		ch:   make(chan []graph.Edge, sinkQueueDepth),
		free: make(chan []graph.Edge, sinkQueueDepth+1),
		done: make(chan struct{}),
		cur:  make([]graph.Edge, 0, sinkFlushRecords)}
	go t.writeLoop()
	return t, nil
}

// Finalize writes the manifest for a completed run and opens the store.
func (s *StoreSink) Finalize(nC int64) (*store.Store, error) {
	if err := store.WriteManifest(s.Dir, nC, s.counts); err != nil {
		return nil, err
	}
	return store.Open(s.Dir)
}

type storeRankSink struct {
	s  *StoreSink
	rk *Rank // for the walk's label, put back after a blocked hand-off
	sw *store.ShardWriter

	ch   chan []graph.Edge // full blocks to the writer goroutine (FIFO)
	free chan []graph.Edge // drained blocks coming back for reuse
	done chan struct{}     // closed when the writer goroutine exits
	cur  []graph.Edge      // staging block, owned by the rank goroutine

	// werr is the writer goroutine's first error; it is written before
	// failed is set, so any goroutine observing failed == true also
	// observes werr (atomic store/load ordering).
	werr   error
	failed atomic.Bool
}

// writeLoop is the shard's flush goroutine: it drains whole blocks in
// handoff order — per-shard write order equals acceptance order, which
// is what keeps shard bytes deterministic — and keeps draining after an
// error so a blocked rank is always released; post-error blocks are
// discarded, the run is already doomed.
func (t *storeRankSink) writeLoop() {
	defer close(t.done)
	pprof.SetGoroutineLabels(sinkFlushLabels)
	for b := range t.ch {
		if !t.failed.Load() {
			if err := t.sw.AppendBlock(b); err != nil {
				t.werr = err
				t.failed.Store(true)
			}
		}
		select {
		case t.free <- b[:0]:
		default: // pool full; let the GC take it
		}
	}
}

// handoff queues the staging block for the writer and checks out a
// replacement. The enqueue blocks when the writer is sinkQueueDepth
// blocks behind — the sink's backpressure, and the rank's wait is then
// labelled phase=store.
func (t *storeRankSink) handoff() error {
	if t.failed.Load() {
		return t.werr
	}
	if len(t.cur) == 0 {
		return nil
	}
	select {
	case t.ch <- t.cur:
	default:
		t.rk.waitStore()
		t.ch <- t.cur
		t.rk.endWaitStore()
	}
	select {
	case b := <-t.free:
		t.cur = b
	default:
		t.cur = make([]graph.Edge, 0, sinkFlushRecords)
	}
	return nil
}

func (t *storeRankSink) Store(e graph.Edge) error {
	if t.failed.Load() {
		return t.werr
	}
	t.cur = append(t.cur, e)
	if len(t.cur) >= sinkFlushRecords {
		return t.handoff()
	}
	return nil
}

// StoreBlock implements BlockStorer, reporting how far a failing batch
// got so checkpoint accounting stays exact. Edges count as stored once
// staged (see the type comment); the block aliases an engine buffer, so
// it is copied into the staging block here.
func (t *storeRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	return stage(t, edges, 0, 0, appendEdges)
}

// StorePackedBlock implements PackedBlockStorer: StoreBlock, with the arcs
// widened into the staging block as they are copied in.
func (t *storeRankSink) StorePackedBlock(_ int, arcs []uint64, u0, v0 int64) (int64, error) {
	return stage(t, arcs, u0, v0, core.ExpandPacked)
}

// appendEdges is core.ExpandPacked for a wide block, whose base is (0, 0):
// append.
func appendEdges(dst, edges []graph.Edge, _, _ int64) []graph.Edge { return append(dst, edges...) }

// stage is StoreBlock in either form: the block, based at (u0, v0), is
// added to the staging block by add, in pieces that fill it to
// sinkFlushRecords, each full one handed off.
func stage[B graph.Edge | uint64](t *storeRankSink, block []B, u0, v0 int64, add func([]graph.Edge, []B, int64, int64) []graph.Edge) (int64, error) {
	if t.failed.Load() {
		return 0, t.werr
	}
	var stored int64
	for len(block) > 0 {
		n := min(sinkFlushRecords-len(t.cur), len(block))
		t.cur = add(t.cur, block[:n], u0, v0)
		stored += int64(n)
		block = block[n:]
		if len(t.cur) >= sinkFlushRecords {
			if err := t.handoff(); err != nil {
				return stored, err
			}
		}
	}
	return stored, nil
}

// Close drains the pipeline: the staging remainder is queued, the writer
// goroutine is joined, and only then is the shard flushed and counted —
// so a successful Close means every accepted edge is on disk.
func (t *storeRankSink) Close() error {
	if len(t.cur) > 0 && !t.failed.Load() {
		t.ch <- t.cur
	}
	t.cur = nil
	close(t.ch)
	<-t.done
	if t.failed.Load() {
		t.sw.Close()
		return t.werr
	}
	t.s.counts[t.rk.ID()] = t.sw.Count()
	return t.sw.Close()
}

// streamBatch is one tile-framed delivery from an expander rank to the
// stream consumer.
type streamBatch struct {
	tile  int
	edges []graph.Edge
}

// streamSink feeds a single consumer from every expander rank through
// per-rank channels of tile-framed batches — the serving sink behind
// StreamChainFrom. Per-rank channels (rather than one shared channel) are
// what make the stream deterministic: each rank's channel is FIFO and its
// tile sequence is ID-increasing, so the consumer can walk tiles in
// global ID order pulling each tile's batches from its owning rank,
// with backpressure (small channel depth) bounding how far ahead other
// ranks run. Batches are pooled; the consumer returns each batch after
// use via recycle, and the outstanding counter is the leak probe.
//
// Delivery never depends on Close: a rank hands every batch over from
// inside an attempt, on its own goroutine — full batches as they fill,
// and a tile's sub-batch tail the moment the tile's closed-form arc count
// (arcs, from the plan) is complete. Close runs after the run's last
// attempt, when the consumer may already be waiting for the run itself.
type streamSink struct {
	ctx   context.Context
	chans []chan streamBatch // one per rank
	batch int
	arcs  map[int]int64 // Plan.Arcs per plan tile ID

	outstanding int64 // buffers checked out of edgeBufs and not yet recycled
	messages    int64
	routed      int64
	bytes       int64
}

// streamChanDepth is the per-rank channel depth: enough to decouple a
// rank's expansion from the consumer's emit without letting ahead-running
// ranks buffer unboundedly (per-rank stream memory stays O(batch)).
const streamChanDepth = 2

func newStreamSink(ctx context.Context, batch int, plan Plan) *streamSink {
	s := &streamSink{
		ctx:   ctx,
		chans: make([]chan streamBatch, plan.R),
		batch: batch,
		arcs:  make(map[int]int64),
	}
	for i := range s.chans {
		s.chans[i] = make(chan streamBatch, streamChanDepth)
	}
	for _, tiles := range plan.Tiles {
		for _, t := range tiles {
			s.arcs[t.ID] = plan.Arcs(t)
		}
	}
	return s
}

func (s *streamSink) getBuf() []graph.Edge {
	atomic.AddInt64(&s.outstanding, 1)
	return edgeBufs.get(s.batch)
}

// recycle returns a consumed batch to the package freelist.
func (s *streamSink) recycle(b []graph.Edge) {
	if cap(b) == 0 {
		return
	}
	atomic.AddInt64(&s.outstanding, -1)
	edgeBufs.put(b)
}

// Rank implements Sink.
func (s *streamSink) Rank(rk *Rank) (RankSink, error) {
	return &streamRankSink{s: s, rk: rk, rank: rk.ID(), tile: -1, buf: s.getBuf()}, nil
}

// streamRankSink buffers one rank's edges between hand-offs; every
// delivered batch carries a single tile.
//
// What "stored" means here, for the checkpoint table: an edge counts as
// stored once it is in buf — the instance and its buffer outlive a
// torn-down attempt, so buffered edges reach the consumer on a later
// hand-off and the replay must not generate them again — with one
// exception: the edge that completes a tile is acknowledged only when the
// tile's tail has been handed over. A tile therefore commits exactly when
// the consumer has all of it. A tail hand-off that teardown interrupts
// leaves the tile one edge short of its closed-form count; the ordinary
// replay brings the rank back to that tile, seeks to its last edge, and
// the hand-off is made again.
type streamRankSink struct {
	s    *streamSink
	rk   *Rank // for the attempt context — hand-offs must not outlive teardown
	rank int
	tile int   // tile the rank is on; -1 before the first
	left int64 // edges of that tile not yet accepted
	buf  []graph.Edge
}

// Store is unreachable: the engine always prefers the StoreTileBlock
// fast path. It refuses rather than guessing a tile frame.
func (t *streamRankSink) Store(graph.Edge) error {
	return fmt.Errorf("dist: stream sink requires tile-framed block delivery")
}

// StoreTileBlock implements TileBlockStorer: the batch is copied into the
// rank buffer in chunks that honor the hand-off threshold, and the chunk
// that completes the tile takes the tile's tail with it. A rank leaves a
// tile only when it is complete, so a tile switch finds the buffer empty.
func (t *streamRankSink) StoreTileBlock(tile int, edges []graph.Edge) (int64, error) {
	return buffer(t, tile, edges, 0, 0, appendEdges)
}

// StorePackedBlock implements PackedBlockStorer: StoreTileBlock, with the
// arcs widened into the rank buffer as they are copied in.
func (t *streamRankSink) StorePackedBlock(tile int, arcs []uint64, u0, v0 int64) (int64, error) {
	return buffer(t, tile, arcs, u0, v0, core.ExpandPacked)
}

// buffer is StoreTileBlock in either form, the block, based at (u0, v0),
// added to the rank buffer by add.
func buffer[B graph.Edge | uint64](t *streamRankSink, tile int, block []B, u0, v0 int64, add func([]graph.Edge, []B, int64, int64) []graph.Edge) (int64, error) {
	if tile != t.tile {
		t.tile, t.left = tile, t.s.arcs[tile]
	}
	var stored int64
	for len(block) > 0 {
		if room := t.s.batch - len(t.buf); room > 0 {
			n := min(len(block), room)
			t.buf = add(t.buf, block[:n], u0, v0)
			stored += int64(n)
			t.left -= int64(n)
			block = block[n:]
		}
		if len(t.buf) >= t.s.batch || t.left == 0 {
			if err := t.handOff(); err != nil {
				// Teardown cut the hand-off: the buffer keeps the rest of the
				// block too, past batch until its next hand-off, so a replay
				// generates none of it again — but for the tile's last edge,
				// held back (see the type comment).
				t.buf = add(t.buf, block, u0, v0)
				stored += int64(len(block))
				t.left -= int64(len(block))
				if t.left == 0 {
					t.buf = t.buf[:len(t.buf)-1]
					t.left++
					stored--
				}
				return stored, err
			}
		}
	}
	return stored, nil
}

// handOff sends the buffered batch to the consumer, accounting it as
// delivered traffic only on successful delivery — a batch dropped by
// cancellation is never counted. It runs on the rank goroutine during an
// attempt, so it also watches the attempt context: when another rank
// crashes, the consumer is waiting on that rank's channel in tile order
// and may never drain this one — the attempt teardown must be allowed to
// unblock the send, leaving the buffered edges in buf for the next
// attempt. A send that has to wait for the consumer is labelled
// phase=store for the wait.
func (t *streamRankSink) handOff() error {
	b := streamBatch{tile: t.tile, edges: t.buf}
	select {
	case t.s.chans[t.rank] <- b:
	default:
		t.rk.waitStore()
		defer t.rk.endWaitStore()
		select {
		case t.s.chans[t.rank] <- b:
		case <-t.s.ctx.Done():
			return context.Cause(t.s.ctx)
		case <-t.rk.c.ctx.Done():
			return context.Cause(t.rk.c.ctx)
		}
	}
	atomic.AddInt64(&t.s.messages, 1)
	atomic.AddInt64(&t.s.routed, int64(len(t.buf)))
	atomic.AddInt64(&t.s.bytes, int64(len(t.buf))*edgeWireBytes)
	t.buf = t.s.getBuf()
	return nil
}

// Close returns the rank's buffer to the pool. After a run that succeeded
// it is empty — every tile's tail went out with the tile; after one that
// failed, whatever is left was never owed to the consumer.
func (t *streamRankSink) Close() error {
	t.s.recycle(t.buf)
	t.buf = nil
	return nil
}
