package main

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kronlab/internal/dist"
	"kronlab/internal/graph"
)

// TestSmoke runs every workload and the ladder at tiny sizes, in this
// process, and holds what they emit to BENCHMARK.json: every metric
// named there, once, finite, with the declared unit — so the file and
// the harness cannot drift apart. In-process runs never start the
// supervised two-rank stream probe, which hangs today.
func TestSmoke(t *testing.T) {
	spec, err := loadBenchSpec()
	if err != nil {
		t.Fatal(err)
	}
	scratch := t.TempDir()
	o := &options{seed: 10, size: sizeTiny, scratch: scratch,
		traceOut: filepath.Join(scratch, "spans.jsonl")}
	h := &harness{inProcess: true}
	ctx := context.Background()

	check := func(r *record, want []metricSpec) {
		t.Helper()
		if r.Failed != 0 || !r.Correct {
			t.Errorf("%s: %d of %d operations failed", r.Workload, r.Failed, r.Attempted)
		}
		if len(r.Metrics) != len(want) {
			t.Errorf("%s: %d metrics emitted, BENCHMARK.json names %d", r.Workload, len(r.Metrics), len(want))
		}
		for _, m := range want {
			got, ok := r.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s not emitted", r.Workload, m.Name)
			case got.Unit != m.Unit:
				t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", r.Workload, m.Name, got.Unit, m.Unit)
			case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
				t.Errorf("%s: metric %s is %v", r.Workload, m.Name, got.Value)
			}
		}
	}

	if spec.RunSeconds != declaredSeconds {
		t.Errorf("BENCHMARK.json says run_seconds %d, the harness defaults to %d", spec.RunSeconds, declaredSeconds)
	}
	// BENCHMARK.json gates a subset of the harness's workloads (README,
	// Workloads); each one it names must be the harness's, word for word.
	for _, sw := range spec.Workloads {
		if w := findWorkload(sw.Name); w == nil {
			t.Errorf("BENCHMARK.json names workload %q, the harness has none", sw.Name)
		} else if sw.Why != w.why {
			t.Errorf("workload %s: BENCHMARK.json says %q, the harness %q", sw.Name, sw.Why, w.why)
		}
	}
	for _, w := range workloads {
		check(h.measure(ctx, w, o), spec.EndToEnd)
	}

	o.trace = 1
	r := h.ladder(ctx, o)
	check(r, spec.PerLayer)
	if got := r.Metrics["probe.supervised_stream_r2_ok"].Value; got != -1 {
		t.Errorf("probe.supervised_stream_r2_ok = %v in process, want -1 (not run)", got)
	}
	if fi, err := os.Stat(o.traceOut); err != nil || fi.Size() == 0 {
		t.Errorf("span file %s not written: %v", o.traceOut, err)
	}
}

// The sink decorator must offer the engine exactly the block interfaces
// the inner sink offers, or it measures a path the engine would not take.
type plainRank struct{ n int }

func (p *plainRank) Store(graph.Edge) error { p.n++; return nil }
func (p *plainRank) Close() error           { return nil }

type blockRank struct{ plainRank }

func (b *blockRank) StoreBlock(e []graph.Edge) (int64, error) {
	b.n += len(e)
	return int64(len(e)), nil
}

type tileRank struct{ plainRank }

func (b *tileRank) StoreTileBlock(_ int, e []graph.Edge) (int64, error) {
	b.n += len(e)
	return int64(len(e)), nil
}

type bothRank struct {
	blockRank
	tile int
}

func (b *bothRank) StoreTileBlock(_ int, e []graph.Edge) (int64, error) {
	b.tile += len(e)
	return int64(len(e)), nil
}

type fixedSink struct{ rs dist.RankSink }

func (f fixedSink) Rank(*dist.Rank) (dist.RankSink, error) { return f.rs, nil }

func TestTimedSinkForwardsBlockInterfaces(t *testing.T) {
	for name, inner := range map[string]dist.RankSink{
		"plain": &plainRank{}, "block": &blockRank{}, "tile": &tileRank{}, "both": &bothRank{}} {
		plan := dist.Plan{R: 1, Tiles: make([][]dist.Tile, 1)}
		ts := newTimedSink(fixedSink{inner}, nil, 0)
		// An empty plan still opens and closes each rank's sink.
		var wrapped dist.RankSink
		probe := sinkFunc(func(rk *dist.Rank) (dist.RankSink, error) {
			rs, err := ts.Rank(rk)
			wrapped = rs
			return rs, err
		})
		if _, err := dist.Run(context.Background(), dist.Config{Plan: plan, Sink: probe}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		_, innerBlock := inner.(dist.BlockStorer)
		_, innerTile := inner.(dist.TileBlockStorer)
		_, gotBlock := wrapped.(dist.BlockStorer)
		_, gotTile := wrapped.(dist.TileBlockStorer)
		if gotBlock != innerBlock || gotTile != innerTile {
			t.Errorf("%s: wrapper offers BlockStorer=%v TileBlockStorer=%v, inner offers %v %v",
				name, gotBlock, gotTile, innerBlock, innerTile)
		}
	}
}

type sinkFunc func(*dist.Rank) (dist.RankSink, error)

func (f sinkFunc) Rank(rk *dist.Rank) (dist.RankSink, error) { return f(rk) }

func TestJudge(t *testing.T) {
	lower := metricSpec{Name: "cpu_ns_per_edge", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "edges_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	noisy := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	for _, c := range []struct {
		name     string
		m        metricSpec
		old, cur []float64
		paired   bool
		want     string
	}{
		{"same", lower, base, base, true, verdictWithin},
		{"5% slower", lower, base, scale(1.05), true, verdictWithin},
		{"20% slower", lower, base, scale(1.20), true, verdictWorse},
		{"20% slower, unpaired", lower, base, scale(1.20), false, verdictWorse},
		{"20% faster", lower, base, scale(0.80), true, verdictBetter},
		{"20% faster, unpaired", lower, base, scale(0.80), false, verdictWithin},
		{"20% more throughput", higher, base, scale(1.20), true, verdictBetter},
		{"20% less throughput", higher, base, scale(0.80), true, verdictWorse},
		{"noise wider than the bound", lower, noisy, scale(1.15), true, verdictUnresolved},
	} {
		if got := judge(c.m, c.old, c.cur, c.paired); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	// A set-up time that moved by less than its absolute floor is not worse.
	setup := metricSpec{Name: "setup_s", Better: "lower", Bound: 0.10}
	if got := judge(setup, []float64{0.0020, 0.0021, 0.0019}, []float64{0.0030, 0.0031, 0.0029}, true); got != verdictWithin {
		t.Errorf("2 ms → 3 ms set-up: verdict %s, want within", got)
	}
}

// Run i of one side only pairs with run i of the other when the two sets
// were recorded interleaved, each side going first about as often.
func TestPaired(t *testing.T) {
	t0 := time.Date(2026, 9, 30, 0, 0, 0, 0, time.UTC)
	at := func(secs ...int) []time.Time {
		out := make([]time.Time, len(secs))
		for i, s := range secs {
			out[i] = t0.Add(time.Duration(s) * time.Second)
		}
		return out
	}
	for _, c := range []struct {
		name     string
		old, cur []time.Time
		want     bool
	}{
		{"alternating", at(0, 30, 40, 70), at(10, 20, 50, 60), true},
		{"one set after the other", at(0, 10, 20, 30), at(40, 50, 60, 70), false},
		{"interleaved, one side always first", at(0, 20, 40, 60), at(10, 30, 50, 70), false},
		{"unequal counts", at(0, 30), at(10, 20, 50), false},
		{"no start times", make([]time.Time, 4), at(10, 20, 50, 60), false},
	} {
		if got := paired(c.old, c.cur); got != c.want {
			t.Errorf("%s: paired = %v, want %v", c.name, got, c.want)
		}
	}
}

// -size verify is the verification pass's own size: only the second
// process it starts may be given it.
func TestSizeVerifyIsInternal(t *testing.T) {
	if _, _, err := parseFlags([]string{"-size", "verify"}); err == nil {
		t.Error("-size verify accepted from a user")
	}
	if _, _, err := parseFlags([]string{"-child", childPeer, "-size", "verify"}); err != nil {
		t.Errorf("-size verify refused to a peer child: %v", err)
	}
}
