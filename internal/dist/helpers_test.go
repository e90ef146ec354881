package dist

import (
	"context"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// mustChain composes test factors into a chain; validated factors cannot
// fail, so an error is a bug in the test.
func mustChain(gs ...*graph.Graph) *core.Chain {
	ch, err := core.NewChain(gs...)
	if err != nil {
		panic(err)
	}
	return ch
}

// mustGraph builds a test factor from arcs the test wrote in range.
func mustGraph(n int64, arcs []graph.Edge) *graph.Graph {
	g, err := graph.New(n, arcs)
	if err != nil {
		panic(err)
	}
	return g
}

// placer is o's source form for a run of plan, bound as the engine binds
// it (sourceForm) — what the tests hold stored arcs and crash targets to.
func placer(o Owner, plan Plan) func(u int64) int {
	bySource, err := sourceForm(o, plan)
	if err != nil {
		panic(err)
	}
	return bySource
}

// countOnly expands the chain on r ranks into a CountSink — no owner, no
// storage — and returns the number of edges the sink counted.
func countOnly(ch *core.Chain, r int, twoD bool) (int64, error) {
	plan, err := planForChain(ch, r, twoD)
	if err != nil {
		return 0, err
	}
	sink := &CountSink{}
	if _, err := Run(context.Background(), Config{Plan: plan, Sink: sink}); err != nil {
		return 0, err
	}
	return sink.Total(), nil
}

// ownedWalk is a rank's owner-side walk outside the engine, for the walk
// tests and BenchmarkRoute to drive through step.
func ownedWalk(o *ownedRows) *walk {
	return &walk{batch: o.batch, own: o, scratch: make([]uint64, 0, o.batch)}
}

// step is one sweep of the owner-side walk of t as walk.tiles takes it —
// ownedRows.sweep, then every block of it out of walk.owned — with the
// blocks, each with its base, handed to emit. The pick and cur must be
// windowed to t's part of the tail, as walk.tiles windows them per tile.
func (w *walk) step(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64, emit func(tile int, block []uint64, u0, v0 int64) bool) (int64, bool) {
	n := w.own.sweep(cur, uBase, vBase, rem)
	for block := w.owned(); len(block) > 0; block = w.owned() {
		if !emit(t.ID, block, w.own.u0, w.own.v0) {
			return 0, false
		}
	}
	return n, true
}

// getBuf checks an empty edge buffer for an n-edge block out of edgeBufs.
func (c *cluster) getBuf(n int) []graph.Edge { return checkOut(c, &edgeBufs, n) }

// putBuf returns a checked-out buffer to edgeBufs; a nil buffer is none.
func (c *cluster) putBuf(b []graph.Edge) { checkIn(c, &edgeBufs, b) }
