package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestClusterBufPoolStress hammers the package freelist from more
// goroutines than the machine has cores, each checking buffers out
// (Cluster.getBuf) and back (putBuf) at random. Meant for -race (the
// cluster CI job runs it there): an unguarded stack mutation or a
// double-handed-out buffer shows up as a race or as payload corruption.
// Afterwards every checked-out buffer must be back (OutstandingBufs
// exactly zero).
func TestClusterBufPoolStress(t *testing.T) {
	const (
		ranks = 32
		iters = 500
	)
	c, err := newCluster(2, 0, 2)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan string, ranks)
	for rk := 0; rk < ranks; rk++ {
		wg.Add(1)
		go func(rk int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + rk)))
			stamp := int64(rk) << 32

			// Buffers checked out via getBuf, each stamped with an
			// owner-unique sentinel so a buffer handed to two goroutines
			// at once is caught as corruption even outside a race window.
			var held [][]graph.Edge
			for i := 0; i < iters; i++ {
				if rng.Intn(2) == 0 { // check out and stamp
					b := c.getBuf(DefaultBatchSize)
					if len(b) != 0 {
						fail <- "getBuf returned a non-reset buffer"
						return
					}
					b = append(b, graph.Edge{U: stamp + int64(i), V: stamp - int64(i)})
					held = append(held, b)
					continue
				}
				if len(held) == 0 { // verify stamp and recycle
					continue
				}
				j := rng.Intn(len(held))
				b := held[j]
				if b[0].U>>32 != int64(rk) || b[0].U+b[0].V != 2*stamp {
					fail <- "recycled buffer carries another owner's stamp — pool handed one buffer out twice"
					return
				}
				held[j] = held[len(held)-1]
				held = held[:len(held)-1]
				c.putBuf(b)
			}
			for _, b := range held {
				c.putBuf(b)
			}
		}(rk)
	}
	wg.Wait()
	close(fail)
	for msg := range fail {
		t.Fatal(msg)
	}
	if out := c.Stats().OutstandingBufs; out != 0 {
		t.Fatalf("pool stress leaked %d checked-out buffers", out)
	}
}

// TestShortRecycledBuffersGrow: a recycled buffer may have any capacity
// (batch sizes vary across runs), so whatever writes a run of arcs into one
// must grow it the way append does. The freelist is left holding only
// capacity-16 buffers; unrouted jobs (ExpandNextPacked into the scratch
// block), OwnerBySource jobs (ExpandSourceTo into the scratch block from a
// pick whose buffer is as short) and a stream (the stream sink's appends into its
// hand-off batches — the cell is named byEdge after the router whose staging
// buffers it filled before placing moved to the owner) at a batch of 1024
// must still emit exactly the chain's arcs.
func TestShortRecycledBuffersGrow(t *testing.T) {
	ch := mustChain(gen.MustRMAT(gen.Graph500Params(5, 501)), gen.MustRMAT(gen.Graph500Params(6, 502)))
	var want []graph.Edge
	ch.Arcs(func(u, v int64) bool {
		want = append(want, graph.Edge{U: u, V: v})
		return true
	})
	want = sortedArcs(want)
	const r = 3
	plan, err := planForChain(ch, r, false)
	if err != nil {
		t.Fatal(err)
	}
	run := func(owner Owner) func() ([]graph.Edge, error) {
		return func() ([]graph.Edge, error) {
			ms := NewMemorySink(r)
			_, err := Run(context.Background(), Config{Plan: plan, Sink: ms, BatchSize: 1024, Owner: owner})
			return mergedArcs(ms), err
		}
	}
	stream := func() (got []graph.Edge, err error) {
		_, err = StreamChainFrom(context.Background(), ch, r, false, 1024, 0, -1, Recovery{}, func(b []graph.Edge) error {
			got = append(got, b...)
			return nil
		})
		return got, err
	}
	for _, o := range []struct {
		name string
		run  func() ([]graph.Edge, error)
	}{{"unrouted", run(nil)}, {"bySource", run(OwnerBySource)}, {"byEdge", stream}} {
		t.Run(o.name, func(t *testing.T) {
			edgeBufs.mu.Lock()
			warm := edgeBufs.free
			edgeBufs.free = make([][]graph.Edge, 256)
			for i := range edgeBufs.free {
				edgeBufs.free[i] = make([]graph.Edge, 0, 16)
			}
			edgeBufs.mu.Unlock()
			defer func() {
				edgeBufs.mu.Lock()
				edgeBufs.free = warm
				edgeBufs.mu.Unlock()
			}()
			got, err := o.run()
			if err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, "sorted arcs", sortedArcs(got), want)
		})
	}
}

// TestFaultAbortLeavesNoBuffersParked: a stream aborted by an injected
// crash — other ranks' hand-off batches parked in their channels, the
// victim's partial batch staged in its sink — returns every pooled buffer
// (Stats.OutstandingBufs folds the stream sink's balance into the run's),
// on one core and on several.
func TestFaultAbortLeavesNoBuffersParked(t *testing.T) {
	ch := mustChain(gen.ER(8, 0.5, 511), gen.PrefAttach(7, 2, 512))
	const r, batch = 4, 4
	plan, err := planForChain(ch, r, false)
	if err != nil {
		t.Fatal(err)
	}
	victim, work := plannedWork(plan)
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			crash := CrashSpec{Rank: victim, Point: FaultMidExpansion, After: work/2 + 1}
			var st Stats
			runErr := runWithWatchdog(t, chaosWatchdog, func() (err error) {
				st, err = streamPlan(context.Background(), plan, batch, Recovery{}, &FaultPlan{Crashes: []CrashSpec{crash}},
					func([]graph.Edge) error { runtime.Gosched(); return nil })
				return err
			})
			var ce *RankCrashError
			if !errors.As(runErr, &ce) || ce.Rank != victim {
				t.Fatalf("want the injected crash of rank %d, got %v", victim, runErr)
			}
			if st.OutstandingBufs != 0 {
				t.Fatalf("%d pooled buffers outstanding after the aborted stream", st.OutstandingBufs)
			}
		})
	}
}

// TestRoutedBackpressure drives clean streams into a full hand-off channel:
// at R ∈ {2, 16, 32} with batches of 1 and 7 edges, the consumer yields the
// processor on every batch and, on its first, waits until a rank is blocked
// handing a batch over (a goroutine in streamRankSink.handOff labelled
// phase=store) — the proof that the blocking path ran. Each stream must
// deliver exactly the serial stream (1D, so in its order) and return every
// pooled buffer, on one core and on several. (The name is from when the
// full inbox was a routed run's.)
func TestRoutedBackpressure(t *testing.T) {
	ch := mustChain(gen.MustRMAT(gen.Graph500Params(5, 1)), gen.MustRMAT(gen.Graph500Params(5, 2)))
	want := referenceArcs(ch)
	for _, procs := range []int{1, 4} {
		for _, r := range []int{2, 16, 32} {
			for _, batch := range []int{1, 7} {
				t.Run(fmt.Sprintf("procs%d/R=%d/B=%d", procs, r, batch), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					var got []graph.Edge
					var blocked string
					var st Stats
					runErr := runWithWatchdog(t, chaosWatchdog, func() (err error) {
						st, err = StreamChainFrom(context.Background(), ch, r, false, batch, 0, -1, Recovery{}, func(b []graph.Edge) error {
							for deadline := time.Now().Add(10 * time.Second); got == nil && !strings.Contains(blocked, `"phase":"store"`) && time.Now().Before(deadline); time.Sleep(time.Millisecond) {
								blocked = goroutineRecord("dist.(*streamRankSink).handOff")
							}
							got = append(got, b...)
							runtime.Gosched()
							return nil
						})
						return err
					})
					if runErr != nil {
						t.Fatal(runErr)
					}
					assertSameOrder(t, "stream", got, want)
					if st.OutstandingBufs != 0 {
						t.Fatalf("%d pooled buffers outstanding", st.OutstandingBufs)
					}
					if !strings.Contains(blocked, `"phase":"store"`) {
						t.Fatalf("no rank was ever blocked on the consumer:\n%s", blocked)
					}
				})
			}
		}
	}
}
