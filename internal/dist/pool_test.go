package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"kronlab/internal/core"
	chantransport "kronlab/internal/dist/transport/chan"
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
	c, err := NewCluster(2)
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
// capacity-16 buffers; unrouted jobs (ExpandNext into the scratch block),
// OwnerBySource jobs (ExpandRun into the scratch block from a pick whose
// buffer is as short) and OwnerByEdge jobs (the router's appends into
// staging buffers) at a batch of 1024 must still emit exactly the chain's
// arcs.
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
	for _, o := range []struct {
		name  string
		owner Owner
	}{{"unrouted", nil}, {"bySource", OwnerBySource}, {"byEdge", OwnerByEdge}} {
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
			ms := NewMemorySink(r)
			if _, err := Run(context.Background(), Config{Plan: plan, Sink: ms, BatchSize: 1024, Owner: o.owner}); err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, "sorted arcs", sortedArcs(mergedArcs(ms)), want)
		})
	}
}

// TestFaultAbortLeavesNoBuffersParked: an exchange aborted by an injected
// crash after one rank has delivered batches to another, with a partial
// batch still staged, reads zero outstanding buffers after Reset, on one
// core and on several.
func TestFaultAbortLeavesNoBuffersParked(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("procs%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c, err := NewCluster(2)
			if err != nil {
				t.Fatal(err)
			}
			// Rank 1 survives its first send and dies in its second.
			c.InjectFaults(FaultPlan{Seed: 1, Crashes: []CrashSpec{{Rank: 1, Point: FaultMidExchange, After: 1}}})
			tr := c.tr.(*chantransport.Transport)
			const batch = 4
			runErr := runWithWatchdog(t, chaosWatchdog, func() error {
				return c.Run(func(rk *Rank) error {
					return rk.exchangeBlocks(batch, func(s *shipper) {
						peer := 1 - rk.ID()
						if rk.ID() == 0 {
							// Two full batches to rank 1 and a staged partial
							// one, then idle: rank 0 never drains its inbox.
							for i := 0; i <= 2*batch; i++ {
								s.stage(peer, 0, graph.Edge{V: int64(i)})
							}
							<-rk.Context().Done()
							return
						}
						for tr.Depth(1) < 2 {
							runtime.Gosched()
						}
						// The first flush's progress delivers rank 0's two
						// batches and recycles their buffers; the second
						// flush is the crash.
						for i := 0; i <= 2*batch && s.stage(peer, 0, graph.Edge{V: int64(i)}); i++ {
						}
					}, func(int, []graph.Edge) {})
				})
			})
			var ce *RankCrashError
			if !errors.As(runErr, &ce) || ce.Rank != 1 {
				t.Fatalf("want the injected crash of rank 1, got %v", runErr)
			}
			c.Reset()
			if n := c.outstandingBufs(); n != 0 {
				t.Fatalf("%d pooled buffers outstanding after Reset", n)
			}
		})
	}
}

// TestRoutedBackpressure drives clean routed runs into a full inbox, which
// they now reach only through a blocking SendBatch with inline progress:
// OwnerByEdge at R ∈ {2, 16, 32} with batches of 1 and 7 edges, rank 0's
// sink yielding the processor on every block so its peers outrun it. Each
// run must store exactly the product, return every pooled buffer, and have
// filled rank 0's inbox (MaxInboxDepth = 4R + 16, the Mailbox's capacity) —
// the proof the blocking path ran — on one core and on several.
func TestRoutedBackpressure(t *testing.T) {
	a, b := gen.MustRMAT(gen.Graph500Params(5, 1)), gen.MustRMAT(gen.Graph500Params(5, 2))
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		for _, r := range []int{2, 16, 32} {
			for _, batch := range []int{1, 7} {
				t.Run(fmt.Sprintf("procs%d/R=%d/B=%d", procs, r, batch), func(t *testing.T) {
					defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
					plan, err := PlanChain1D(mustChain(a, b), r)
					if err != nil {
						t.Fatal(err)
					}
					ms := NewMemorySink(r)
					var st Stats
					runErr := runWithWatchdog(t, chaosWatchdog, func() error {
						st, err = Run(context.Background(), Config{Plan: plan, Owner: OwnerByEdge, Sink: yieldSink{ms}, BatchSize: batch})
						return err
					})
					if runErr != nil {
						t.Fatal(runErr)
					}
					assertExact(t, plan.NC, mergedArcs(ms), want)
					if st.OutstandingBufs != 0 {
						t.Fatalf("%d pooled buffers outstanding", st.OutstandingBufs)
					}
					if capacity := int64(4*r + 16); st.MaxInboxDepth != capacity {
						t.Fatalf("MaxInboxDepth = %d, want the inbox capacity %d: no sender ever found rank 0's inbox full", st.MaxInboxDepth, capacity)
					}
				})
			}
		}
	}
}

// yieldSink is a MemorySink whose rank 0 yields the processor before
// storing each block.
type yieldSink struct{ *MemorySink }

func (s yieldSink) Rank(rk *Rank) (RankSink, error) {
	rs, err := s.MemorySink.Rank(rk)
	if err != nil || rk.ID() != 0 {
		return rs, err
	}
	return yieldRankSink{rs.(*memRankSink)}, nil
}

type yieldRankSink struct{ *memRankSink }

func (y yieldRankSink) StoreBlock(edges []graph.Edge) (int64, error) {
	runtime.Gosched()
	return y.memRankSink.StoreBlock(edges)
}
