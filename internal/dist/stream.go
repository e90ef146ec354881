package dist

import (
	"context"
	"fmt"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// StreamChainFrom delivers a contiguous range of the deterministic edge
// stream of the factor chain A₁⊗…⊗Aₖ, cut by the Sec. III generator (1D
// partitioning, or Rem. 1's 2D cut with twoD) at r ranks, to emit in
// batches of up to batch arcs (≤ 0: DefaultBatchSize): limit arcs (< 0 =
// through the end) starting at global arc offset. An ordered stream has one
// consumer reading one sequence, so there is no store to split: r fixes the
// plan's cut, and with it the order, and one rank walks every tile of it in
// that order, emitting each block as it is stored (emitSink) — memory stays
// O(batch) no matter how large |E_C| is. The skipped prefix is never
// generated — the plan is sliced up front (Plan.Slice locates the start
// tile and in-tile position in O(tiles) from closed-form arc counts) and
// the boundary tiles start mid-tile via the kernel's windowed expansion.
//
// emit is called on the caller's goroutine; the batch slice is reused
// after emit returns and must not be retained. The stream stops early when
// ctx is cancelled or emit returns an error, and every failure mode
// completes or errors, never hangs (see DESIGN.md §3a, "Failure
// semantics"). Stats counters follow the Generate* conventions, with every
// delivered edge accounted in Messages, EdgesRouted and BytesSent as
// traffic to the consumer.
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
// every edge exactly once: what the rank counts as stored is what emit
// accepted, and a replay resumes every tile there.
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
// optional fault schedule for the recovery suites: the engine run on one
// rank holding every tile of plan in ID order.
func streamPlan(ctx context.Context, plan Plan, batch int, rec Recovery, faults *FaultPlan, emit func([]graph.Edge) error) (Stats, error) {
	one := Plan{R: 1, NC: plan.NC, Dims: plan.Dims, Tail: plan.Tail, Tiles: [][]Tile{plan.orderedTiles()}}
	sink := &emitSink{emit: emit}
	st, err := Run(ctx, Config{Plan: one, Sink: sink, Recovery: rec, BatchSize: batch, Faults: faults})
	// Delivery to the consumer is the stream's communication.
	st.Messages, st.EdgesRouted, st.BytesSent = sink.batches, sink.arcs, sink.arcs*edgeWireBytes
	return st, err
}

// emitSink is the ordered stream's sink: each block the rank stores, which
// the engine has widened into its reused block (fencedRankSink.store), goes
// to emit whole, and counts as stored only once emit accepted it.
type emitSink struct {
	emit          func([]graph.Edge) error
	batches, arcs int64
}

// Rank implements Sink; the stream has one rank.
func (s *emitSink) Rank(*Rank) (RankSink, error) { return s, nil }

// Store is unreachable: the engine prefers StoreBlock.
func (s *emitSink) Store(e graph.Edge) error {
	_, err := s.StoreBlock([]graph.Edge{e})
	return err
}

// StoreBlock implements BlockStorer.
func (s *emitSink) StoreBlock(edges []graph.Edge) (int64, error) {
	if err := s.emit(edges); err != nil {
		return 0, err
	}
	s.batches++
	s.arcs += int64(len(edges))
	return int64(len(edges)), nil
}

func (s *emitSink) Close() error { return nil }
