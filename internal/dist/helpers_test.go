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

// placer is o's answer for an arc at r ranks through the form the engine
// places with — its source form where it has one, the OwnerFunc otherwise —
// what the tests hold stored arcs and crash targets to.
func placer(o Owner, r int) func(u, v int64) int {
	if bySource := o.BindSource(r); bySource != nil {
		return func(u, _ int64) int { return bySource(u) }
	}
	f := o.(OwnerFunc)
	return func(u, v int64) int { return f(u, v, r) }
}

// countOnly expands the chain on r ranks into a CountSink — no routing, no
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

// stage routes a single edge — the per-edge reference route is held to
// (TestRouteRunsEquivalence), and what Exchange stages with. Identical
// staging and flush behavior to route, one edge at a time.
func (s *shipper) stage(to, tile int, e graph.Edge) bool {
	if s.aborted {
		return false
	}
	b := s.bufs[to]
	if len(b) == 0 {
		if b == nil {
			b = s.getBuf()
		}
		s.tile[to] = tile
	} else if s.tile[to] != tile {
		if !s.flush(to, false) {
			return false
		}
		b = s.bufs[to]
		s.tile[to] = tile
	}
	b = append(b, e)
	s.bufs[to] = b
	return len(b) < s.batch || s.flush(to, false)
}

// Exchange runs one all-to-all exchange on this rank one edge at a time —
// the per-edge surface over exchangeBlocks the transport tests and
// benchmarks drive. produce is called with an emit function that routes a
// single edge to a destination rank and reports whether it was accepted
// (false once the exchange is cancelled); handle receives every edge
// delivered to this rank. Exchange returns when this rank has produced all
// its edges and received every rank's EOF marker, or with the cancellation
// cause when the run is torn down mid-exchange.
func (rk *Rank) Exchange(produce func(emit func(to int, e graph.Edge) bool), handle func(e graph.Edge)) error {
	return rk.exchangeBlocks(DefaultBatchSize, func(s *shipper) {
		produce(func(to int, e graph.Edge) bool { return s.stage(to, 0, e) })
	}, func(_ int, edges []graph.Edge) {
		for _, e := range edges {
			handle(e)
		}
	})
}
