package dist

import (
	"context"
	"math/bits"
	"reflect"
	"sync/atomic"

	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// DefaultBatchSize is the number of edges buffered per destination before
// a message is flushed when Config.BatchSize is unset, mirroring the
// aggregation HPC generators use to amortize message overhead, and the
// size of the scratch block every rank expands into. 1024 is the top of a
// cliff (DESIGN §3a): smaller blocks pay the per-block path more often;
// the block — 16 B × BatchSize, 16 KB here — must stay in a 48 KB L1 next
// to the innermost factor streaming through it, and at 2048 it does not:
// unrouted expansion (dist.Run, RMAT(10)², R = 2) reads 8.6–8.9 / 9.8–10.1
// / 4.8–4.9 / 4.7–4.9 / 4.7–4.8 e9 arcs/s at 512 / 1024 / 2048 / 4096 /
// 8192 on addEdges' 256-bit loop, and 9.8–10.2 / 11.6–12.2 / 5.8–6.0 /
// 5.2–5.3 / 5.2 on the cursor's packed AVX-512 body.
const DefaultBatchSize = 1024

// shipper stages outgoing edges into pooled per-destination batch
// buffers and flushes them through Rank.send — the exchange, which only an
// owner without a source form reaches (runAttempt). Buffers flush at tile
// boundaries (so a batch never mixes tiles — the framing recovering
// sinks deduplicate on) and at the batch threshold. Each flush hands the
// staged buffer to the transport, blocking with inline receive progress
// while the destination is full, and checks out a fresh one (getBuf); the
// receiver recycles the sent one.
type shipper struct {
	rk      *Rank
	c       *Cluster
	rx      *receiver
	onRecv  func(Message) // rx.recv as a stored method value: one alloc per exchange, reused by every SendBatch
	batch   int
	bufs    [][]graph.Edge // staged batch per destination (nil until targeted)
	tile    []int          // tile of the staged batch, per destination
	aborted bool
}

// newShipper wires one rank's staging state to the cluster's transport:
// the per-destination buffers, the inline receiver, and the progress
// callback SendBatch uses to deliver this rank's inbound batches while
// an outbound send blocks.
func newShipper(rk *Rank, batch int, handle func(tile int, edges []graph.Edge)) *shipper {
	c := rk.c
	s := &shipper{rk: rk, c: c, batch: batch,
		rx:   &receiver{c: c, id: rk.id, epoch: c.epoch, handle: handle},
		bufs: make([][]graph.Edge, c.r), tile: make([]int, c.r)}
	s.onRecv = s.rx.recv
	return s
}

// spareCap bounds a rank's spare stack; recycles beyond it go to edgeBufs.
const spareCap = 64

// getBuf returns an empty staging buffer: the top of this rank's spare
// stack, else one from edgeBufs. Without the stack every batch goes
// through the freelist's lock twice, and the routed R = 16 run
// (BenchmarkKernelBatchSize/B=1024) reads 6–10 % slower (DESIGN §3f).
func (s *shipper) getBuf() []graph.Edge {
	rx := s.rx
	if rx.nspare == 0 {
		return s.c.getBuf(s.batch)
	}
	atomic.AddInt64(&s.c.bufsOut, 1)
	rx.nspare--
	b := rx.spare[rx.nspare]
	rx.spare[rx.nspare] = nil
	return b
}

// receiver is the inline progress engine of one rank's exchange. The
// rank drains its own inbox from its producing goroutine — inside a send
// that would otherwise block, opportunistically after every flush, and
// while waiting for EOF markers at the end — the way an MPI library
// progresses receives inside blocking sends. One goroutine per rank
// means a delivered batch is handled on the core that just staged
// outgoing ones (cache-warm on the simulated single-box cluster) and the
// transport needs no receiver goroutines or completion channels at all.
type receiver struct {
	c      *Cluster
	id     int
	epoch  int64
	eofs   int
	handle func(tile int, edges []graph.Edge)

	// spare is the rank's stack of delivered buffers, emptied, for its
	// next flushes (shipper.getBuf): one goroutine per rank makes it safe
	// without a lock. Buffers on it count as not checked out.
	spare  [spareCap][]graph.Edge
	nspare int
}

// recycle puts a delivered buffer on the spare stack, or back in edgeBufs
// when the stack is full.
func (rx *receiver) recycle(b []graph.Edge) {
	if cap(b) == 0 || rx.nspare == spareCap {
		rx.c.putBuf(b)
		return
	}
	atomic.AddInt64(&rx.c.bufsOut, -1)
	rx.spare[rx.nspare] = b[:0]
	rx.nspare++
}

// recv applies one delivered message: epoch fence, handler, buffer
// recycling, EOF accounting.
func (rx *receiver) recv(m Message) {
	if m.Epoch != rx.epoch {
		// Epoch fence: a batch from another attempt is dropped whole
		// (its EOF marker included — the attempt it ends is already
		// torn down).
		atomic.AddInt64(&rx.c.stats.StaleBatches, 1)
		rx.recycle(m.Edges)
		return
	}
	if len(m.Edges) > 0 {
		rx.handle(m.Tile, m.Edges)
	}
	rx.recycle(m.Edges)
	if m.EOF {
		rx.eofs++
	}
}

// progress drains every message the transport has already buffered for
// this rank without blocking — a no-op when nothing is pending.
func (rx *receiver) progress() {
	for {
		m, ok := rx.c.tr.TryRecv(rx.id)
		if !ok {
			return
		}
		rx.recv(m)
	}
}

// send delivers one message to a peer's inbox, observing scheduled
// faults and updating traffic counters. It returns false without
// delivering when the run is cancelled, when the sending rank's
// scheduled crash fires, or when the message exhausts its redelivery
// budget — in the last two cases the run is first cancelled with the
// fault as its cause, so the failure is loud rather than a silently
// missing edge batch.
//
// Rank-local messages skip the transport: with the receiver inline on
// the sending goroutine the batch is applied directly, as an MPI rank
// does for self-addressed traffic. Cross-rank batches go through
// Transport.SendBatch with the shipper's progress callback, so while a
// send blocks the rank keeps receiving its own traffic — the progress
// that makes the inline engine deadlock-free: any rank blocked sending
// is itself one recv away from freeing a peer.
func (s *shipper) send(to int, m Message) bool {
	rk, c := s.rk, s.c
	m.From = rk.id
	m.Dest = to
	m.Epoch = c.epoch
	if f := c.faults; f != nil {
		if _, err := f.crashWithin(rk.id, FaultMidExchange, 1); err != nil {
			c.cancel(err)
			return false
		}
		if to != rk.id {
			ok, err := f.deliver(c.ctx, rk.id, to)
			if err != nil {
				c.cancel(err)
				return false
			}
			if !ok {
				return false
			}
		}
	}
	// Refuse delivery on a torn-down run before even attempting it: a
	// buffered inbox on a dead run would strand the batch (and its
	// pooled buffer) where no receiver will ever drain it.
	if c.ctx.Err() != nil {
		return false
	}
	if to == rk.id {
		s.rx.recv(m)
	} else if err := c.tr.SendBatch(c.ctx, m, s.onRecv); err != nil {
		// A transport failure (dead peer link) must be loud, not a
		// silently missing batch: make it the run's cancellation cause.
		if c.ctx.Err() == nil {
			c.cancel(err)
		}
		return false
	} else if len(m.Edges) > 0 {
		atomic.AddInt64(&c.stats.EdgesRouted, int64(len(m.Edges)))
		atomic.AddInt64(&c.stats.BytesSent, int64(len(m.Edges))*edgeWireBytes)
	}
	atomic.AddInt64(&c.stats.Messages, 1)
	return true
}

// flush ships the staged batch for one destination (or a bare EOF
// marker), checks out a replacement buffer and drains this rank's own
// backlog. On failure the shipper is aborted: the run is torn down and
// nothing more will be accepted.
func (s *shipper) flush(to int, eof bool) bool {
	b := s.bufs[to]
	if len(b) == 0 && !eof {
		return true
	}
	if !s.send(to, Message{Tile: s.tile[to], Edges: b, EOF: eof}) {
		s.aborted = true
		return false
	}
	if eof {
		s.bufs[to] = nil
		return true
	}
	s.bufs[to] = s.getBuf()
	// Drain our own backlog while we are here so in-flight buffers stay
	// O(R + inbox) instead of piling up until the EOF drain.
	s.rx.progress()
	return true
}

// route partitions one expansion block edge by edge — the router, for
// owners that look at the target too (OwnerByEdge) or are opaque
// functions: the body is the owner call, an append and a threshold check
// per edge. The tests hold it to stage, their one-edge-at-a-time reference
// (helpers_test.go).
func (s *shipper) route(tile int, block []graph.Edge, owner OwnerFunc) bool {
	if s.aborted {
		return false
	}
	bufs, tiles, r := s.bufs, s.tile, s.c.r
	for _, e := range block {
		to := owner(e.U, e.V, r)
		b := bufs[to]
		if len(b) == 0 {
			if b == nil {
				b = s.getBuf()
			}
			tiles[to] = tile
		} else if tiles[to] != tile {
			// Tile boundary: ship the previous tile's partial batch so a
			// batch never mixes tiles. Boundaries are rare (tiles are
			// large), so this costs nothing on the hot path.
			if !s.flush(to, false) {
				return false
			}
			b = bufs[to]
			tiles[to] = tile
		}
		b = append(b, e)
		bufs[to] = b
		if len(b) >= s.batch && !s.flush(to, false) {
			return false
		}
	}
	return true
}

// exchangeBlocks is the batched all-to-all transport the engine runs on:
// produce stages outgoing edges through the shipper, handle receives
// whole delivered batches with their tile framing. Every batch carries
// the plan tile its edges came from (buffers flush at tile boundaries so
// batches never mix tiles) and the run epoch stamped by send. The
// receiver drops whole batches from another epoch — residue a previous
// attempt could in principle leave behind — counting them in
// Stats.StaleBatches, so a recovering run can never double-apply or
// misattribute a stale batch. Within one attempt all epochs match and
// the fence is a single comparison per batch.
//
// Receiving is inline — progress on send — so inbox buffers drain while
// expansion is still running without a receiver goroutine per rank: the
// rank drains opportunistically at every flush and inside any send that
// blocks, then waits out the remaining EOF markers after producing. A
// delivered batch's Edges slice is recycled after handle returns, so
// handle must copy edges it retains.
func (rk *Rank) exchangeBlocks(batch int, produce func(s *shipper), handle func(tile int, edges []graph.Edge)) error {
	c := rk.c
	s := newShipper(rk, batch, handle)
	defer func() { // the spare stack back to edgeBufs, warm for the next exchange
		for _, b := range s.rx.spare[:s.rx.nspare] {
			edgeBufs.put(b)
		}
	}()
	produce(s)
	for to := 0; to < c.r && !s.aborted; to++ {
		s.flush(to, true)
	}
	// Drain until every rank's EOF marker (our own included) arrives.
	for !s.aborted && s.rx.eofs < c.r {
		m, err := c.tr.Recv(c.ctx, rk.id)
		if err != nil {
			if c.ctx.Err() == nil {
				c.cancel(err)
			}
			s.aborted = true
			break
		}
		s.rx.recv(m)
	}
	if s.aborted || c.ctx.Err() != nil {
		// Nothing will deliver the staged batches now; recycle them or
		// they leak from the pool on every aborted run.
		for to, b := range s.bufs {
			c.putBuf(b)
			s.bufs[to] = nil
		}
		return context.Cause(c.ctx)
	}
	return nil
}

// OwnerFunc maps a product edge to the rank that stores it, given the
// cluster size. The paper leaves the storage mapping open ("some mapping
// scheme"); the functions below provide the common choices. The engine
// cannot see inside a function value, so an OwnerFunc is called once per
// edge and its edges cross the exchange — but for OwnerBySource, whose
// source form the engine knows (BindSource).
type OwnerFunc func(u, v int64, r int) int

// Owner maps generated edges to storing ranks, and whether it has a source
// form decides where they are generated. BindSource, asked once per run
// attempt, returns the map at r ranks as a pure function of the source
// (BlockOwner; OwnerBySource passed as is), and then nothing is routed:
// every rank walks every tile and generates the CSR rows it owns straight
// into its own sink (ownedRows) — the paper's Sec. III "generate only the
// edges it must store" — at the price of stepping over every sweep of every
// tile. It returns nil when the owner reads the target too, which only an
// OwnerFunc may do (RunCluster refuses any other kind): OwnerByEdge, an
// OwnerByBlock(nC) closure or a caller's own function is called once per
// edge, and the edge is routed over the batched all-to-all exchange.
type Owner interface {
	BindSource(r int) func(u int64) int
}

// BindSource implements Owner: store.BySource bound to r for OwnerBySource,
// recognised by code pointer (a closure with the same body stays opaque),
// and nil for any other function.
func (f OwnerFunc) BindSource(r int) func(u int64) int {
	if reflect.ValueOf(f).Pointer() != ownerBySourcePC {
		return nil
	}
	return func(u int64) int { return store.BySource(u, 0, r) }
}

// OwnerBySource assigns edges to ranks by a multiplicative hash of the
// source endpoint — 1D vertex partitioning of the product graph, and the
// shard map of internal/store: it is store.BySource, the map's one
// definition, which keeps the hash's high bits so that every rank owns 1/r
// of the arcs but for the hubs' share. Passed as is (not wrapped in another
// function), it has a source form: nothing is routed.
var OwnerBySource OwnerFunc = store.BySource

// ownerBySourcePC is OwnerBySource's code pointer, what recognition
// compares against: func values are not comparable in Go, and
// OwnerBySource has to stay a plain OwnerFunc value for its callers.
var ownerBySourcePC = reflect.ValueOf(OwnerBySource).Pointer()

// OwnerByEdge hashes both endpoints, spreading even a single hub vertex's
// edges across ranks (2D-style edge partitioning): the two endpoints'
// products folded through one xor-shift-multiply round, then the same
// high-word reduction as store.BySource — a remainder would keep the low
// bits of u and v, the skewed ones.
var OwnerByEdge OwnerFunc = func(u, v int64, r int) int {
	h := uint64(u)*0x9e3779b97f4a7c15 ^ (uint64(v)*0xc2b2ae3d27d4eb4f + 0x165667b19e3779f9)
	h = (h ^ h>>32) * 0xd6e8feb86659fd93
	hi, _ := bits.Mul64(h, uint64(r))
	return int(hi)
}

// BlockOwner assigns contiguous source-vertex blocks of size ⌈NC/r⌉ —
// the layout a CSR-partitioned distributed graph store would use. It is
// the plan-resolved form of OwnerByBlock and a map of the source: the block
// size is fixed once per attempt, and a rank copies nothing for a sweep
// its block covers and steps over one it has no row of.
type BlockOwner struct {
	NC int64 // product vertex count n_A·n_B
}

// BindSource implements Owner.
func (o BlockOwner) BindSource(r int) func(u int64) int {
	per := (o.NC + int64(r) - 1) / int64(r)
	last := r - 1
	return func(u int64) int {
		d := int(u / per)
		if d > last {
			d = last
		}
		return d
	}
}

// OwnerByBlock is BlockOwner in OwnerFunc form, for callers that carry
// owner maps as plain functions. The block size is recomputed per call
// and, being an opaque function, it is routed edge by edge: engine runs
// should pass BlockOwner{NC} instead, which routes nothing.
func OwnerByBlock(nC int64) OwnerFunc {
	return func(u, _ int64, r int) int {
		per := (nC + int64(r) - 1) / int64(r)
		o := int(u / per)
		if o >= r {
			o = r - 1
		}
		return o
	}
}
