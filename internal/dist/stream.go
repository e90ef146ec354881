package dist

import (
	"context"
	"fmt"
	"sync/atomic"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// StreamChainFrom runs the Sec. III generator (1D partitioning, or Rem.
// 1's 2D cut with twoD) over the factor chain A₁⊗…⊗Aₖ on r concurrent
// expander ranks and delivers a contiguous range of the product's
// deterministic edge stream to emit in batches of up to batch arcs (≤ 0:
// DefaultBatchSize): limit arcs (< 0 = through the end) starting at global
// arc offset. It is the engine run with the single-consumer streaming
// sink: instead of routing edges to per-rank storage, all ranks feed one
// consumer — kronserve's HTTP response writer — so memory stays
// O(r·batch) no matter how large |E_C| is. The skipped
// prefix is never generated — the plan is sliced up front (Plan.Slice
// locates the start tile and in-tile position in O(tiles) from
// closed-form arc counts) and each boundary rank starts mid-tile via the
// kernel's windowed expansion.
//
// emit is called from a single goroutine (the caller's); the batch slice
// is recycled after emit returns and must not be retained. The stream
// stops early when ctx is cancelled or emit returns an error; either way
// the expander ranks are torn down before StreamChainFrom returns — every
// failure mode completes or errors, never hangs (see DESIGN.md §3a,
// "Failure semantics"). Stats counters follow the Generate* conventions,
// with every delivered edge accounted in Messages, EdgesRouted and
// BytesSent as traffic to the consumer.
//
// The stream order is canonical and reproducible: tiles in ascending
// plan-ID order, each tile's edges in the kernel's fixed expansion
// order. Under 1D partitioning this equals the serial chain enumeration
// (core.Chain.Arcs) regardless of r; under 2D it is the deterministic
// order of the plan's H × T cut for that (layout, r). Identical (chain, layout, r,
// offset) always yield the identical byte stream — the property HTTP
// Range/resume-token serving depends on.
//
// rec is the retry policy (see Recovery). A recovered stream delivers
// every edge exactly once: a replay resumes every tile at what its rank
// already accepted, and a tile commits only once the consumer has all of
// it (see streamRankSink).
func StreamChainFrom(ctx context.Context, ch *core.Chain, r int, twoD bool, batch int, offset, limit int64, rec Recovery, emit func([]graph.Edge) error) (Stats, error) {
	if r < 1 {
		return Stats{}, fmt.Errorf("dist: stream needs ≥ 1 rank, got %d", r)
	}
	plan, err := sliceForChain(ch, r, twoD, offset, limit)
	if err != nil {
		return Stats{}, err
	}
	return streamPlan(ctx, plan, batch, rec, nil, emit)
}

// streamPlan is StreamChainFrom on an already-built plan, with an
// optional fault schedule for the recovery suites.
func streamPlan(ctx context.Context, plan Plan, batch int, rec Recovery, faults *FaultPlan, emit func([]graph.Edge) error) (Stats, error) {
	if batch <= 0 {
		batch = DefaultBatchSize
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	sink := newStreamSink(ctx, batch, plan)
	var st Stats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		st, runErr = Run(ctx, Config{Plan: plan, Sink: sink, Recovery: rec, BatchSize: batch, Faults: faults})
		for _, c := range sink.chans {
			close(c)
		}
	}()

	// The consumer walks tiles in global ID order, pulling each tile's
	// batches from its owning rank's channel until the tile's closed-form
	// arc count is satisfied. Per-rank FIFO delivery plus ID-increasing
	// per-rank tile lists guarantee the next batch on the needed channel
	// belongs to the needed tile; the check stays as a loud invariant.
	rankOf := plan.tileRanks()
	var emitErr error
consume:
	for _, t := range plan.orderedTiles() {
		for got, expect := int64(0), plan.Arcs(t); got < expect; {
			b, ok := <-sink.chans[rankOf[t.ID]]
			if !ok {
				break consume // the run is over: the stream ended early (error or cancel)
			}
			if b.tile != t.ID {
				emitErr = fmt.Errorf("dist: stream order violated: got tile %d, want %d", b.tile, t.ID)
				cancel()
				sink.recycle(b.edges)
				break consume
			}
			got += int64(len(b.edges))
			if emitErr != nil || ctx.Err() != nil {
				sink.recycle(b.edges)
				continue
			}
			err := emit(b.edges)
			// Recycle unconditionally — the emit-error path must return
			// the batch to the pool too, or the buffer leaks.
			sink.recycle(b.edges)
			if err != nil {
				emitErr = err
				cancel()
			}
		}
	}
	// Drain so expander ranks blocked on a hand-off can exit; every
	// leftover batch goes back to the pool.
	for _, c := range sink.chans {
		for b := range c {
			sink.recycle(b.edges)
		}
	}
	<-done

	// Delivery to the consumer is the stream's communication.
	st.Messages = atomic.LoadInt64(&sink.messages)
	st.EdgesRouted = atomic.LoadInt64(&sink.routed)
	st.BytesSent = atomic.LoadInt64(&sink.bytes)
	// Leak probe: the stream sink keeps its own tally of the buffers it
	// checked out of edgeBufs; fold its balance into the run's counter.
	st.OutstandingBufs += atomic.LoadInt64(&sink.outstanding)
	switch {
	case emitErr != nil:
		return st, emitErr
	case context.Cause(ctx) != nil:
		return st, context.Cause(ctx)
	default:
		return st, runErr
	}
}
