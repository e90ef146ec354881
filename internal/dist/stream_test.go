package dist

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// streamWatchdog bounds every stream in the suites: a stream that stalls
// is torn down through its context and fails its test with a deadline
// error, instead of hanging the binary until go test's own timeout.
const streamWatchdog = 10 * time.Second

// streamBudgets are the retry budgets the stream suites run at: none, the
// one kronserve defaults to, and one that is never the last.
var streamBudgets = []int{0, 1, 3}

func watchdogCtx(t testing.TB) context.Context {
	ctx, cancel := context.WithTimeout(context.Background(), streamWatchdog)
	t.Cleanup(cancel)
	return ctx
}

// streamArcs streams [offset, offset+limit) of the chain under the
// watchdog and returns the arcs in delivery order.
func streamArcs(t testing.TB, ch *core.Chain, r int, twoD bool, batch int, offset, limit int64, rec Recovery) ([]graph.Edge, Stats) {
	t.Helper()
	var out []graph.Edge
	st, err := StreamChainFrom(watchdogCtx(t), ch, r, twoD, batch, offset, limit, rec, func(b []graph.Edge) error {
		out = append(out, b...)
		return nil
	})
	if err != nil {
		t.Fatalf("stream r=%d twoD=%v batch=%d [%d,+%d) retries=%d: %v", r, twoD, batch, offset, limit, rec.MaxRetries, err)
	}
	return out, st
}

// serialArcs is the oracle: the chain's arcs from offset on, in
// core.Chain.ArcsFrom order.
func serialArcs(t testing.TB, ch *core.Chain, offset int64) []graph.Edge {
	t.Helper()
	var out []graph.Edge
	if _, err := ch.ArcsFrom(offset, func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameOrder(t testing.TB, what string, got, want []graph.Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d arcs, want %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: arc %d = %v, want %v", what, i, got[i], want[i])
		}
	}
}

func sortedArcs(arcs []graph.Edge) []graph.Edge {
	out := append([]graph.Edge(nil), arcs...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].U != out[j].U {
			return out[i].U < out[j].U
		}
		return out[i].V < out[j].V
	})
	return out
}

func TestStreamMatchesProduct(t *testing.T) {
	a := gen.PrefAttach(12, 2, 3)
	b := gen.ER(9, 0.4, 4)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-1", 1, false}, {"1d-4", 4, false}, {"2d-4", 4, true}, {"2d-7", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, retries := range streamBudgets {
				arcs, stats := streamArcs(t, mustChain(a, b), tc.r, tc.twoD, 64, 0, -1, Recovery{MaxRetries: retries})
				got, err := graph.New(want.NumVertices(), arcs)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatal("streamed arcs do not rebuild A ⊗ B")
				}
				if stats.EdgesGenerated != a.NumArcs()*b.NumArcs() {
					t.Errorf("EdgesGenerated = %d, want %d", stats.EdgesGenerated, a.NumArcs()*b.NumArcs())
				}
				if stats.EdgesRouted != stats.EdgesGenerated || stats.BytesSent != 16*stats.EdgesGenerated {
					t.Errorf("routing counters inconsistent: %+v", stats)
				}
			}
		})
	}
}

// TestStreamTileNotMultipleOfBatch is the case the two sink lifetimes used
// to sit on either side of: every tile of the plan ends on a sub-batch
// tail (ER(20,.5)² has 39140 arcs; no tile is a multiple of 1024 or 16),
// with and without a retry budget. With a budget the tail used to wait for
// a Close that came after the attempt, and the stream hung.
func TestStreamTileNotMultipleOfBatch(t *testing.T) {
	ch := mustChain(gen.ER(20, 0.5, 1), gen.ER(20, 0.5, 2))
	serial := serialArcs(t, ch, 0)
	for _, r := range []int{2, 3, 4} {
		for _, batch := range []int{1024, 16} {
			for _, retries := range streamBudgets {
				rec := Recovery{MaxRetries: retries}
				what := fmt.Sprintf("r=%d batch=%d retries=%d", r, batch, retries)
				got, st := streamArcs(t, ch, r, false, batch, 0, -1, rec)
				assertSameOrder(t, "1d "+what, got, serial)
				if st.OutstandingBufs != 0 {
					t.Fatalf("1d %s: %d buffers outstanding", what, st.OutstandingBufs)
				}
				got, st = streamArcs(t, ch, r, true, batch, 0, -1, rec)
				assertSameOrder(t, "2d "+what+" (sorted)", sortedArcs(got), sortedArcs(serial))
				if st.OutstandingBufs != 0 {
					t.Fatalf("2d %s: %d buffers outstanding", what, st.OutstandingBufs)
				}
			}
		}
	}
}

// TestStreamRecoversExactlyOnce crashes the stream's one walking rank
// once, 1D and 2D: before its sink is set up, after its walk, and
// mid-expansion at positions of the stream (streamCrashes). The recovered
// stream is the clean stream, arc for arc — under 1D, core.Chain.ArcsFrom
// itself — with nothing generated or delivered twice and every buffer
// returned.
func TestStreamRecoversExactlyOnce(t *testing.T) {
	ch := mustChain(gen.PrefAttach(9, 2, 91), gen.ER(8, 0.5, 92))
	const r, batch = 3, 16
	for _, twoD := range []bool{false, true} {
		plan, err := planForChain(ch, r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		stream := func(faults *FaultPlan, rec Recovery) ([]graph.Edge, Stats, error) {
			var out []graph.Edge
			st, err := streamPlan(watchdogCtx(t), plan, batch, rec, faults, func(b []graph.Edge) error {
				out = append(out, b...)
				return nil
			})
			return out, st, err
		}
		want, _, err := stream(nil, Recovery{})
		if err != nil {
			t.Fatal(err)
		}
		if twoD {
			assertSameOrder(t, "clean 2d stream (sorted)", sortedArcs(want), sortedArcs(serialArcs(t, ch, 0)))
		} else {
			assertSameOrder(t, "clean 1d stream", want, serialArcs(t, ch, 0))
		}
		for _, spec := range streamCrashes(t, plan, want) {
			name := fmt.Sprintf("twoD=%v/%v after %d", twoD, spec.Point, spec.After)
			faults := &FaultPlan{Crashes: []CrashSpec{spec}}

			// No budget: the crash is returned unchanged.
			_, st, err := stream(faults, Recovery{})
			var rc *RankCrashError
			if !errors.As(err, &rc) || rc.Rank != 0 || rc.Point != spec.Point {
				t.Fatalf("%s, no retries: err = %v, want the injected crash", name, err)
			}
			if st.OutstandingBufs != 0 {
				t.Fatalf("%s, no retries: %d buffers outstanding", name, st.OutstandingBufs)
			}

			// One retry: the stream is the clean stream.
			got, st, err := stream(faults, Recovery{MaxRetries: 1})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			assertSameOrder(t, name, got, want)
			if st.OutstandingBufs != 0 {
				t.Fatalf("%s: %d buffers outstanding", name, st.OutstandingBufs)
			}
			if st.RecoveredRuns != 1 || st.TotalRetries() != 1 {
				t.Fatalf("%s: RecoveredRuns=%d RetriesPerRank=%v, want one retry", name, st.RecoveredRuns, st.RetriesPerRank)
			}
			// What emit accepted is stored: the replay resumes every tile
			// there and generates none of it again.
			if st.EdgesGenerated != int64(len(want)) {
				t.Fatalf("%s: generated %d arcs, want the stream's %d", name, st.EdgesGenerated, len(want))
			}
			if st.EdgesRouted != int64(len(want)) {
				t.Fatalf("%s: %d arcs handed to the consumer, want %d", name, st.EdgesRouted, len(want))
			}
		}
	}
}

// streamCrashes are the crashes the recovery suites put on plan's ordered
// stream, whose arcs are stream: each at rank 0, the stream's one walking
// rank — before its sink is set up, after its walk, and mid-expansion one
// arc into the stream's last tile of ten arcs or more, inside a row near
// that tile's middle, at its last arc, and at 90 % of the stream.
func streamCrashes(t testing.TB, plan Plan, stream []graph.Edge) []CrashSpec {
	t.Helper()
	var before, at int64 = -1, 0
	var in []graph.Edge
	for _, tl := range plan.orderedTiles() {
		if n := plan.Arcs(tl); n >= 10 {
			before, in = at, stream[at:at+n]
		}
		at += plan.Arcs(tl)
	}
	if before < 0 {
		t.Fatalf("the stream has no tile of 10 arcs or more")
	}
	mid := len(in) / 2
	for mid < len(in)-1 && in[mid-1].U != in[mid].U {
		mid++
	}
	return []CrashSpec{
		{Point: FaultBeforeSinkSetup},
		{Point: FaultAfterWalk},
		{Point: FaultMidExpansion, After: before + 1},
		{Point: FaultMidExpansion, After: before + int64(mid)},
		{Point: FaultMidExpansion, After: before + int64(len(in)) - 1},
		{Point: FaultMidExpansion, After: int64(len(stream)) * 9 / 10},
	}
}

// TestStreamEmitOnCallerGoroutine holds StreamChainFrom to its word: emit
// runs on the goroutine that called it, at every rank count, also across
// a recovered crash.
func TestStreamEmitOnCallerGoroutine(t *testing.T) {
	ch := mustChain(gen.PrefAttach(9, 2, 93), gen.ER(8, 0.5, 94))
	total, err := ch.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3, 8} {
		for _, crash := range []bool{false, true} {
			t.Run(fmt.Sprintf("R=%d/crash=%v", r, crash), func(t *testing.T) {
				caller := goroutineID()
				var calls, elsewhere int
				emit := func([]graph.Edge) error {
					calls++
					if goroutineID() != caller {
						elsewhere++
					}
					return nil
				}
				var st Stats
				var err error
				if crash {
					plan, perr := planForChain(ch, r, false)
					if perr != nil {
						t.Fatal(perr)
					}
					faults := &FaultPlan{Crashes: []CrashSpec{{Point: FaultMidExpansion, After: total / 2}}}
					st, err = streamPlan(watchdogCtx(t), plan, 16, Recovery{MaxRetries: 1}, faults, emit)
				} else {
					st, err = StreamChainFrom(watchdogCtx(t), ch, r, false, 16, 0, -1, Recovery{}, emit)
				}
				if err != nil {
					t.Fatal(err)
				}
				if crash && st.RecoveredRuns != 1 {
					t.Fatalf("RecoveredRuns = %d, want the crash to have fired and been recovered", st.RecoveredRuns)
				}
				if calls == 0 || elsewhere != 0 {
					t.Fatalf("%d of %d emit calls ran off the caller's goroutine", elsewhere, calls)
				}
			})
		}
	}
}

// goroutineID returns the calling goroutine's id, read off its stack
// header ("goroutine 7 [running]:").
func goroutineID() string {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	id, _, _ := strings.Cut(strings.TrimPrefix(string(buf[:n]), "goroutine "), " ")
	return id
}

func TestStreamEmitErrorStops(t *testing.T) {
	a := gen.ER(40, 0.3, 1)
	b := gen.ER(40, 0.3, 2)
	sentinel := errors.New("downstream full")
	for _, retries := range streamBudgets {
		calls := 0
		_, err := StreamChainFrom(watchdogCtx(t), mustChain(a, b), 4, false, 32, 0, -1, Recovery{MaxRetries: retries}, func([]graph.Edge) error {
			calls++
			if calls >= 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("retries=%d: want sentinel error, got %v", retries, err)
		}
	}
}

func TestStreamCancellation(t *testing.T) {
	a := gen.ER(40, 0.3, 5)
	b := gen.ER(40, 0.3, 6)
	total := a.NumArcs() * b.NumArcs()
	for _, retries := range streamBudgets {
		ctx, cancel := context.WithCancel(watchdogCtx(t))
		var got int64
		_, err := StreamChainFrom(ctx, mustChain(a, b), 3, true, 16, 0, -1, Recovery{MaxRetries: retries}, func(batch []graph.Edge) error {
			got += int64(len(batch))
			if got > 100 {
				cancel()
			}
			return nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("retries=%d: want context.Canceled, got %v", retries, err)
		}
		if got >= total {
			t.Errorf("retries=%d: cancellation did not stop the stream: saw %d of %d", retries, got, total)
		}
	}
}

func TestStreamBadRanks(t *testing.T) {
	a := gen.Ring(4)
	if _, err := StreamChainFrom(watchdogCtx(t), mustChain(a, a), 0, false, 0, 0, -1, Recovery{}, func([]graph.Edge) error { return nil }); err == nil {
		t.Error("r=0 should error")
	}
}
