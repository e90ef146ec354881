package dist

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	chantransport "kronlab/internal/dist/transport/chan"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestClusterBufPoolStress hammers the sharded package freelist with the
// engine's three concurrent access patterns at once: the single
// get/recycle path (Cluster.getBuf/putBuf), the shipper's bulk
// refill/spill (poolFill/poolSpill through a rank-local spare stack),
// and cross-shard stealing — more simulated ranks than poolShards, so
// home shards collide and the steal-on-miss walk runs hot. Meant for
// -race (the cluster CI job runs it there): an unguarded shard mutation
// or a double-handed-out buffer shows up as a race or as payload
// corruption. Afterwards every checked-out buffer must be back
// (OutstandingBufs exactly zero).
func TestClusterBufPoolStress(t *testing.T) {
	const (
		ranks = 4 * poolShards // force home-shard collisions
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
			shard := shardFor(rk)
			stamp := int64(rk) << 32

			// Buffers checked out via getBuf, each stamped with an
			// owner-unique sentinel so a buffer handed to two goroutines
			// at once is caught as corruption even outside a race window.
			var held [][]graph.Edge
			// The shipper economy: shard → spare (poolFill, unaccounted),
			// spare → shard (poolSpill). Kept disjoint from held, exactly
			// as the exchange keeps them.
			var spare [][]graph.Edge

			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 4: // check out and stamp
					b := c.getBuf(rk, DefaultBatchSize)
					if len(b) != 0 {
						fail <- "getBuf returned a non-reset buffer"
						return
					}
					b = append(b, graph.Edge{U: stamp + int64(i), V: stamp - int64(i)})
					held = append(held, b)
				case op < 8: // verify stamp and recycle
					if len(held) == 0 {
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
				case op < 9: // bulk refill, the shipper's spare-stack fill
					if len(spare) < 8 {
						spare = append(spare, poolFill(shard, nil, 8)...)
					}
				default: // bulk spill back to the home shard
					if len(spare) > 0 {
						poolSpill(shard, spare)
						spare = nil
					}
				}
			}
			for _, b := range held {
				c.putBuf(b)
			}
			poolSpill(shard, spare)
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
			warm := poolFill(0, nil, poolShards*edgeBufPoolShardCap) // steals every shard empty
			defer poolSpill(0, warm)
			for shard := 0; shard < poolShards; shard++ {
				short := make([][]graph.Edge, 32)
				for i := range short {
					short[i] = make([]graph.Edge, 0, 16)
				}
				poolSpill(shard, short)
			}
			ms := NewMemorySink(r)
			if _, err := Run(context.Background(), Config{Plan: plan, Sink: ms, BatchSize: 1024, Owner: o.owner}); err != nil {
				t.Fatal(err)
			}
			assertSameOrder(t, "sorted arcs", sortedArcs(mergedArcs(ms)), want)
		})
	}
}

// TestBatchBufferGoesHome: a buffer rank 0 fills and sends to rank 1 comes
// back through rank 0's return stack and is the very buffer — same backing
// array — rank 0 stages into next, so a staging buffer is only ever written
// by one core.
func TestBatchBufferGoesHome(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	const batch = 4
	var sent, again *graph.Edge
	runErr := runWithWatchdog(t, chaosWatchdog, func() error {
		return c.Run(func(rk *Rank) error {
			return rk.exchangeBlocks(batch, func(s *shipper) {
				if rk.ID() != 0 {
					return // rank 1 only receives: its EOF drain delivers what it is sent
				}
				for i := 0; i < batch; i++ {
					if i == batch-1 {
						sent = &s.bufs[1][0]
					}
					s.stage(1, 0, graph.Edge{U: 1, V: int64(i)}) // the last one fills the batch and ships it
				}
				for len(s.home) == 0 {
					runtime.Gosched() // until rank 1 has delivered it and handed the buffer back
				}
				// Leave getBuf nothing to find before the return stack.
				poolSpill(s.shard, s.spare[:s.nspare])
				s.nspare = 0
				b := s.getBuf()
				again = &b[:1][0]
				s.release(rk.ID(), b)
			}, func(int, []graph.Edge) {})
		})
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if sent == nil || sent != again {
		t.Fatalf("rank 0 sent the buffer at %p and staged next into the one at %p: the delivered buffer did not come home", sent, again)
	}
	if n := c.outstandingBufs(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding after the exchange", n)
	}
}

// TestFullReturnStackFallsBackToSpare: when the filler's return stack is
// full the receiver keeps the buffer on its own spare stack — today's path
// — without blocking and without dropping it.
func TestFullReturnStackFallsBackToSpare(t *testing.T) {
	c, err := NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	for len(c.returns[0]) < cap(c.returns[0]) {
		c.returns[0] <- make([]graph.Edge, 0, 1)
	}
	s := newShipper(&Rank{id: 1, c: c}, 4, func(int, []graph.Edge) {})
	buf := make([]graph.Edge, 1, 4)
	s.rx.recv(Message{From: 0, Dest: 1, Epoch: c.epoch, Edges: buf})
	if s.nspare != 1 || &s.spare[0][:1][0] != &buf[0] {
		t.Fatalf("delivered buffer is not on the receiver's spare stack (nspare = %d)", s.nspare)
	}
	if len(c.returns[0]) != cap(c.returns[0]) {
		t.Fatalf("return stack holds %d of %d after a refused push", len(c.returns[0]), cap(c.returns[0]))
	}
}

// TestFaultAbortLeavesNoBuffersParked extends the abort-path leak
// regression to the return stacks: an exchange aborted by an injected crash
// while delivered buffers sit in a rank's return stack reads zero
// outstanding buffers — and empty stacks — after Reset, on one core and on
// several.
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
							// one, then idle: rank 0 never drains its returns.
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
						// batches and hands their buffers back; the second
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
			if len(c.returns[0]) != 2 {
				t.Fatalf("precondition: %d buffers parked in rank 0's return stack, want the 2 rank 1 delivered", len(c.returns[0]))
			}
			c.Reset()
			if n := c.outstandingBufs(); n != 0 {
				t.Fatalf("%d pooled buffers outstanding after Reset", n)
			}
			if n := len(c.returns[0]) + len(c.returns[1]); n != 0 {
				t.Fatalf("%d buffers still parked in return stacks after Reset", n)
			}
		})
	}
}
