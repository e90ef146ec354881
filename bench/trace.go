package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kronlab/internal/dist"
	"kronlab/internal/graph"
)

// span is one harness-side interval around a call into a layer. Spans of
// one traced run share Run; Parent is the ID of the span that caused this
// one (0 for a root). Counts measured at the same boundary ride along in
// Attrs, so ratios are taken where the work happens.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"` // since the tracer was created
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// tracer keeps spans in memory until flush. A nil *tracer records
// nothing, so the same code path serves traced and untraced runs.
type tracer struct {
	run string
	t0  time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{run: run, t0: time.Now()} }

// add records a finished span and returns its ID.
func (t *tracer) add(parent int64, name string, start, end time.Time, attrs map[string]float64) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds(), Attrs: attrs})
	return id
}

// open reserves an ID for a span that is still running, so children can
// name it as their parent; close fills in its end.
func (t *tracer) open(parent int64, name string) int64 {
	if t == nil {
		return 0
	}
	now := time.Now()
	return t.add(parent, name, now, now, nil)
}

func (t *tracer) close(id int64, attrs map[string]float64) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = time.Since(t.t0).Nanoseconds()
	s.Attrs = attrs
}

// flush writes the spans as JSON lines.
func (t *tracer) flush(path string) error {
	if t == nil || path == "" {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	t.mu.Lock()
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sinkAgg is what the sink decorator saw on one rank: time inside the
// inner sink's store calls, how many calls, how many arcs. One goroutine
// (the rank's) writes it; it is read after the run returns.
type sinkAgg struct {
	busy  time.Duration
	calls int64
	arcs  int64
}

// timedSink decorates a dist.Sink from outside the engine: each rank's
// sink is wrapped so the time spent inside Store/StoreBlock/
// StoreTileBlock is measured, and one span per rank is recorded when the
// rank closes its sink.
type timedSink struct {
	inner  dist.Sink
	tr     *tracer
	parent int64

	mu    sync.Mutex
	ranks []*sinkAgg
}

func newTimedSink(inner dist.Sink, tr *tracer, parent int64) *timedSink {
	return &timedSink{inner: inner, tr: tr, parent: parent}
}

// total sums the per-rank aggregates; call after the run has returned.
func (s *timedSink) total() sinkAgg {
	var t sinkAgg
	for _, a := range s.ranks {
		t.busy += a.busy
		t.calls += a.calls
		t.arcs += a.arcs
	}
	return t
}

// Rank implements dist.Sink. The wrapper must offer exactly the block
// interfaces the inner sink offers: the engine picks its delivery path
// by type assertion, and a wrapper that hid StoreBlock would silently
// measure the per-edge path instead.
func (s *timedSink) Rank(rk *dist.Rank) (dist.RankSink, error) {
	rs, err := s.inner.Rank(rk)
	if err != nil {
		return nil, err
	}
	a := &sinkAgg{}
	s.mu.Lock()
	s.ranks = append(s.ranks, a)
	s.mu.Unlock()
	base := &timedRank{rs: rs, a: a, tr: s.tr, parent: s.parent, rank: rk.ID(), start: time.Now()}
	bs, isBlock := rs.(dist.BlockStorer)
	tbs, isTile := rs.(dist.TileBlockStorer)
	switch {
	case isBlock && isTile:
		return &timedBoth{timedBlock{base, bs}, timedTile{base, tbs}}, nil
	case isTile:
		return &timedTile{base, tbs}, nil
	case isBlock:
		return &timedBlock{base, bs}, nil
	}
	return base, nil
}

type timedRank struct {
	rs     dist.RankSink
	a      *sinkAgg
	tr     *tracer
	parent int64
	rank   int
	start  time.Time
}

func (t *timedRank) Store(e graph.Edge) error {
	t0 := time.Now()
	err := t.rs.Store(e)
	t.a.busy += time.Since(t0)
	t.a.calls++
	if err == nil {
		t.a.arcs++
	}
	return err
}

func (t *timedRank) Close() error {
	t0 := time.Now()
	err := t.rs.Close()
	end := time.Now()
	t.a.busy += end.Sub(t0)
	t.tr.add(t.parent, "sink.rank", t.start, end, map[string]float64{
		"rank": float64(t.rank), "busy_ns": float64(t.a.busy.Nanoseconds()),
		"calls": float64(t.a.calls), "arcs": float64(t.a.arcs)})
	return err
}

func (t *timedRank) observe(t0 time.Time, n int64) {
	t.a.busy += time.Since(t0)
	t.a.calls++
	t.a.arcs += n
}

type timedBlock struct {
	*timedRank
	bs dist.BlockStorer
}

func (t timedBlock) StoreBlock(edges []graph.Edge) (int64, error) {
	t0 := time.Now()
	n, err := t.bs.StoreBlock(edges)
	t.observe(t0, n)
	return n, err
}

type timedTile struct {
	*timedRank
	tbs dist.TileBlockStorer
}

func (t timedTile) StoreTileBlock(tile int, edges []graph.Edge) (int64, error) {
	t0 := time.Now()
	n, err := t.tbs.StoreTileBlock(tile, edges)
	t.observe(t0, n)
	return n, err
}

// timedBoth forwards both block interfaces. Store and Close are promoted
// from both embedded values, so they are spelled out to stay unambiguous.
type timedBoth struct {
	timedBlock
	timedTile
}

func (t *timedBoth) Store(e graph.Edge) error { return t.timedBlock.Store(e) }
func (t *timedBoth) Close() error             { return t.timedBlock.Close() }

// timedEmit decorates a stream's emit callback: it notes when the first
// batch arrived and counts what was delivered.
type timedEmit struct {
	start   time.Time
	first   time.Duration // call → first batch; 0 until one arrives
	batches int64
	arcs    int64
}

func (e *timedEmit) emit(batch []graph.Edge) error {
	if e.batches == 0 {
		e.first = time.Since(e.start)
	}
	e.batches++
	e.arcs += int64(len(batch))
	return nil
}
