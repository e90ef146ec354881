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

// placer is o's answer for an arc at r ranks through its source form, the
// one the engine places with — what the tests hold stored arcs and crash
// targets to.
func placer(o Owner, r int) func(u, v int64) int {
	bySource := o.BindSource(r)
	return func(u, _ int64) int { return bySource(u) }
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

// step is one sweep of the owner-side walk as walk.tiles takes it —
// ownedRows.sweep, then every block of it out of ownedRows.next — with the
// blocks handed to emit; the walk tests and BenchmarkRoute drive it.
func (o *ownedRows) step(t *Tile, cur *core.TailCursor, uBase, vBase, rem int64, emit func(tile int, block []graph.Edge) bool) (int64, bool) {
	n := o.sweep(t, cur, uBase, vBase, rem)
	for block := o.next(); len(block) > 0; block = o.next() {
		if !emit(t.ID, block) {
			return 0, false
		}
	}
	return n, true
}
