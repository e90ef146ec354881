// Package dist implements the paper's distributed Kronecker generator
// (Sec. III and Rem. 1). A process runs its ranks as goroutines of one
// cluster: all R of them in process, a contiguous range in cluster mode
// (RunCluster), where R ranks span N processes and each worker's only link
// is its control connection to the head. The partitioning and expansion
// code paths are those of the MPI implementation the paper describes
// (HavoqGT on Sequoia); no arc crosses a rank boundary, because every rank
// generates what it stores, and every rank checks its own balance.
//
// All generation paths are wrappers over one Plan→Expand→Place→Sink
// engine (engine.go): a Plan decomposes the factors into per-rank tiles,
// the Expand stage streams each tile's share of C, an optional Owner — a
// map of the source vertex alone — names the rank that stores each edge,
// and that rank generates it, and a pluggable Sink stores them (in memory,
// on disk, to a streaming consumer, or as a count).
package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"sync"
	"sync/atomic"

	"kronlab/internal/graph"
)

// edgeWireBytes is the accounting size of one edge handed to a stream's
// consumer: two int64 endpoints (store.RecordSize).
const edgeWireBytes = 16

// Stats aggregates a run's counters. The scalar fields are totals over all
// ranks; the per-rank slices expose load skew (the paper's Rem. 1
// crossover) and are populated by the engine.
type Stats struct {
	EdgesGenerated int64 // product edges produced by expansion

	// Deprecated: nothing routes, so an engine run leaves it 0;
	// StreamChainFrom sets it to the edges it handed its consumer. Kept
	// until bench/ stops reading it (ROADMAP 1(e)).
	EdgesRouted int64
	// Deprecated: nothing routes, so an engine run leaves it 0;
	// StreamChainFrom sets it to edgeWireBytes per edge it handed its
	// consumer. Kept until bench/ stops reading it (ROADMAP 1(e)).
	BytesSent int64
	// Deprecated: nothing routes, so an engine run leaves it 0;
	// StreamChainFrom sets it to the batches it handed its consumer. Kept
	// until bench/ stops reading it (ROADMAP 1(e)).
	Messages int64
	// Deprecated: always 0; nothing routes. Kept until bench/ stops reading
	// it (ROADMAP 1(e)).
	MaxInboxDepth int64

	// What placing cost an owner run (read them against EdgesGenerated;
	// see ownedRows). OwnerRowsTested is one count per pick, under every
	// owner: a pick per change of source base or of the tile's part of the
	// tail on every rank (OwnerBySource's class lookup, one owner call; a
	// BlockOwner's range). ArcsCompacted counts arcs copied to make picks:
	// under OwnerBySource the innermost factor's arcs once per attempt for
	// all of a process's ranks, as it is partitioned into classes (none when
	// one class holds them all); none under a BlockOwner.
	OwnerRowsTested int64
	ArcsCompacted   int64

	PerRankGenerated []int64 // edges expanded by each rank (engine runs)
	PerRankStored    []int64 // edges stored by each rank's sink (engine runs)

	// Recovery counters (zero on a run that needed no retry). A replay
	// resumes every tile at what its ranks already stored, so after a retry
	// the generated counters still equal the stored ones — but for the
	// ordered stream, whose replay generates again a tile's last edge held
	// back by a failed attempt (streamRankSink): at most one per rank per
	// failed attempt.
	RetriesPerRank []int64 // attempts re-run, attributed to the rank at fault
	RecoveredRuns  int64   // 1 when the run succeeded only after retries

	// Robustness counters. HeadGeneration counts head incarnations across
	// the run's ledger (1 = the head never died, and every in-process
	// run); LastEpoch is the final attempt's epoch (the attempt number
	// without a ledger).
	HeadGeneration int64
	LastEpoch      int64

	// OutstandingBufs snapshots pooled block buffers still checked out by
	// the process that drove the run. Every in-process run ends at 0,
	// however many attempts it took; the chaos suite asserts it as the
	// buffer-leak probe.
	OutstandingBufs int64
}

// TotalRetries sums the per-rank retry counts.
func (st Stats) TotalRetries() int64 {
	var t int64
	for _, r := range st.RetriesPerRank {
		t += r
	}
	return t
}

// MaxGenerated returns the largest per-rank generated count, or 0 when
// per-rank counters were not collected.
func (st Stats) MaxGenerated() int64 { return maxOf(st.PerRankGenerated) }

// MaxStored returns the largest per-rank stored count, or 0 when per-rank
// counters were not collected.
func (st Stats) MaxStored() int64 { return maxOf(st.PerRankStored) }

func maxOf(xs []int64) int64 {
	var m int64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// cluster is one process's ranks — every rank of an in-process run, the
// hosted range [lo, hi) of a cluster-mode process — run as goroutines over
// one run context. Ranks share nothing else: each walks its tiles into its
// own sink and checks its own balance (runAttempt). Reset returns a
// finished cluster to a runnable state.
type cluster struct {
	r     int
	stats Stats

	// Run context: cancelled (with cause) when any rank's body returns an
	// error. Every cancel the package issues raises stop right after it
	// (cancel), so a walking rank sees teardown with one atomic load per
	// block (walk.place).
	ctx       context.Context
	cancelCtx context.CancelCauseFunc
	stop      atomic.Bool

	// ranks are the hosted ranks [lo, hi), one value each for the cluster's
	// lifetime, so a sink that keeps its Rank sees the walk's phase.
	ranks []Rank

	// faults, when non-nil, is the process's armed crash schedule (see
	// fault.go), consulted by the walk and after it.
	faults *faultState

	// bufsOut counts pooled block buffers currently checked out by this
	// cluster; it must return to zero once a run has torn down, which is
	// how the abort-path leak regression is asserted. The buffers
	// themselves live in the package-level edgeBufs and packedBufs.
	bufsOut int64
}

// newCluster returns a cluster hosting ranks [lo, hi) of r.
func newCluster(r, lo, hi int) (*cluster, error) {
	if r < 1 {
		return nil, fmt.Errorf("dist: cluster needs ≥ 1 rank, got %d", r)
	}
	if lo < 0 || hi > r || lo >= hi {
		return nil, fmt.Errorf("dist: local rank range [%d,%d) invalid for R=%d", lo, hi, r)
	}
	c := &cluster{r: r, ranks: make([]Rank, hi-lo)}
	for i := range c.ranks {
		c.ranks[i] = Rank{id: lo + i, c: c}
	}
	c.ctx, c.cancelCtx = context.WithCancelCause(context.Background())
	return c, nil
}

// Reset returns a finished cluster to a runnable state: stats are zeroed
// and a fresh run context is installed. An armed crash schedule keeps its
// lifetime countdowns. It must not be called concurrently with a run.
func (c *cluster) Reset() {
	c.stats = Stats{}
	c.cancel(nil) // retire the previous run's context
	c.ctx, c.cancelCtx = context.WithCancelCause(context.Background())
}

// cancel tears the run down with cause: the context first, then the stop
// flag, so a walk that sees the flag finds the cause set.
func (c *cluster) cancel(cause error) {
	c.cancelCtx(cause)
	c.stop.Store(true)
}

// Stats returns a snapshot of the counters.
func (c *cluster) Stats() Stats {
	return Stats{
		EdgesGenerated:  atomic.LoadInt64(&c.stats.EdgesGenerated),
		OwnerRowsTested: atomic.LoadInt64(&c.stats.OwnerRowsTested),
		ArcsCompacted:   atomic.LoadInt64(&c.stats.ArcsCompacted),
		OutstandingBufs: atomic.LoadInt64(&c.bufsOut),
	}
}

// run executes body once per local rank concurrently and waits for all of
// them. When parent is cancelled, or any rank's body returns an error,
// every walking rank stops at its next block. The root cause — the first
// rank error, or the external cancellation — is returned in preference to
// the secondary context errors the other ranks observe.
func (c *cluster) run(parent context.Context, body func(rk *Rank) error) error {
	ctx, cancel := context.WithCancelCause(parent)
	c.ctx, c.cancelCtx = ctx, cancel
	c.stop.Store(false)
	defer cancel(nil)
	errs := make([]error, len(c.ranks))
	var wg sync.WaitGroup
	for i := range c.ranks {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if errs[i] = body(&c.ranks[i]); errs[i] != nil {
				c.cancel(errs[i])
			}
		}(i)
	}
	wg.Wait()
	if cause := context.Cause(ctx); cause != nil && !errors.Is(cause, context.Canceled) {
		return cause
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// edgeBufs recycles edge buffers for its users: the fenced sink of a rank
// whose sink takes no packed blocks its widened block (fencedRankSink.store,
// endAttempt), and the stream sink its hand-off batches, which the consumer
// gives back (streamSink.getBuf, recycle); packedBufs recycles each rank's
// scratch block, checked out per attempt (runAttempt). They are
// package-level freelists rather than per-cluster
// sync.Pools because short-lived clusters (one per generation run, one per
// kronserve request) reuse each other's buffers, and pushing a plain slice
// header onto a slice stack does not box it into an interface the way
// sync.Pool.Put does. Per-cluster accounting stays in cluster.bufsOut,
// which nets zero for any get/put pair regardless of which cluster's run
// originally held the buffer.
var (
	edgeBufs   bufStack[graph.Edge]
	packedBufs bufStack[uint64]
)

// edgeBufsCap bounds each freelist; buffers recycled beyond it are dropped
// for the GC. 4096 buffers of the default batch size is 64 MiB of edges.
const edgeBufsCap = 4096

// bufStack is a mutex-guarded stack of empty block buffers.
type bufStack[E graph.Edge | uint64] struct {
	mu   sync.Mutex
	free [][]E
}

// get pops a recycled buffer, or allocates one for an n-arc batch. A
// recycled buffer may have any capacity (batch sizes vary across runs);
// append growth re-sizes it and the grown buffer comes back here, so
// capacities converge upward.
func (p *bufStack[E]) get(n int) []E {
	p.mu.Lock()
	if k := len(p.free); k > 0 {
		b := p.free[k-1]
		p.free[k-1] = nil
		p.free = p.free[:k-1]
		p.mu.Unlock()
		return b
	}
	p.mu.Unlock()
	return make([]E, 0, n)
}

// put recycles b emptied, unless the stack is full.
func (p *bufStack[E]) put(b []E) {
	p.mu.Lock()
	if len(p.free) < edgeBufsCap {
		p.free = append(p.free, b[:0])
	}
	p.mu.Unlock()
}

// checkOut checks an empty buffer for an n-arc block out of p for c.
func checkOut[E graph.Edge | uint64](c *cluster, p *bufStack[E], n int) []E {
	atomic.AddInt64(&c.bufsOut, 1)
	return p.get(n)
}

// checkIn returns a buffer c checked out back to p; a nil buffer is none.
func checkIn[E graph.Edge | uint64](c *cluster, p *bufStack[E], b []E) {
	if cap(b) == 0 {
		return
	}
	atomic.AddInt64(&c.bufsOut, -1)
	p.put(b)
}

// outstandingBufs reports pooled edge buffers currently checked out. Once
// a run has torn down it must be zero — the pooled-buffer leak regression
// asserts exactly that.
func (c *cluster) outstandingBufs() int64 { return atomic.LoadInt64(&c.bufsOut) }

// Rank is one processor of a run: Sink.Rank is called with it.
type Rank struct {
	id int
	c  *cluster
	// phase is the walk's goroutine label (engine.go), recorded so a sink
	// hand-off that blocks can label its wait phase=store and put it back.
	phase context.Context
}

func (rk *Rank) setPhase(labels context.Context) {
	rk.phase = labels
	pprof.SetGoroutineLabels(labels)
}

// waitStore and endWaitStore bracket a sink hand-off's blocking send, which
// only the slow path reaches, after a non-blocking send failed.
func (rk *Rank) waitStore() { pprof.SetGoroutineLabels(storeLabels) }

func (rk *Rank) endWaitStore() {
	if rk.phase != nil {
		pprof.SetGoroutineLabels(rk.phase)
	}
}

// ID returns this rank's global index in [0, Size).
func (rk *Rank) ID() int { return rk.id }

// Size returns the cluster size R.
func (rk *Rank) Size() int { return rk.c.r }

// Context returns the run's context; it is cancelled when any rank of this
// process fails or the run's caller cancels.
func (rk *Rank) Context() context.Context { return rk.c.ctx }

// crashAt consults the armed fault schedule (if any) for a scheduled
// crash of this rank at injection point p. The fast path is a nil check.
func (rk *Rank) crashAt(p FaultPoint) error {
	if rk.c.faults == nil {
		return nil
	}
	_, err := rk.c.faults.crashWithin(rk.id, p, 1)
	return err
}
