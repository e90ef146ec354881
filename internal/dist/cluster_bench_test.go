package dist

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/graph"
)

// Raw exchange throughput of the TCP transport over loopback, by cluster
// size — the cluster-mode counterpart of BenchmarkExchangeThroughput.
// Two processes' worth of ranks live in this one test process, split
// across two real tcp.Nodes, so every cross-proc batch pays the full
// wire cost (encode, frame, kernel socket round-trip, decode). Each
// iteration rebuilds the mesh at a fresh epoch, exactly like one cluster
// run attempt; mesh dial cost on loopback is microseconds against the
// megabytes exchanged, so edges/s reflects the data path.
func BenchmarkTCPExchangeThroughput(b *testing.B) {
	const nprocs = 2
	const hash = 0x6b726f6e // arbitrary; both nodes must just agree
	for _, r := range []int{2, 8} {
		b.Run(fmt.Sprintf("R=%d", r), func(b *testing.B) {
			nodes := make([]*tcp.Node, nprocs)
			addrs := make([]string, nprocs)
			for i := range nodes {
				n, err := tcp.NewNode("127.0.0.1:0", i, hash)
				if err != nil {
					b.Fatal(err)
				}
				defer n.Close()
				nodes[i] = n
				addrs[i] = n.Addr()
			}
			procs := transport.SplitRanks(addrs, r)
			ctx := context.Background()

			const per = 20_000
			b.SetBytes(int64(r) * per * 16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				epoch := int64(i)
				errs := make([]error, nprocs)
				var wg sync.WaitGroup
				for p := 0; p < nprocs; p++ {
					wg.Add(1)
					go func(p int) {
						defer wg.Done()
						pool := &latePool{}
						tr, err := tcp.Connect(ctx, nodes[p], tcp.Config{
							Procs: procs, Self: p, PlanHash: hash, Pool: pool,
						}, epoch)
						if err != nil {
							errs[p] = err
							return
						}
						c, err := NewClusterOn(tr)
						if err != nil {
							tr.Close()
							errs[p] = err
							return
						}
						pool.c.Store(c)
						c.epoch = epoch
						err = c.Run(func(rk *Rank) error {
							var got int
							if err := rk.Exchange(func(emit func(to int, e graph.Edge) bool) {
								for j := 0; j < per; j++ {
									emit(j%r, graph.Edge{U: int64(j), V: int64(rk.ID())})
								}
							}, func(e graph.Edge) {
								got++
							}); err != nil {
								return err
							}
							// Teardown collective: a process that closed its mesh
							// while its peer still had traffic in flight would
							// read to the peer as a dead link.
							return rk.BarrierContext()
						})
						c.Reset()
						if cerr := tr.Close(); err == nil {
							err = cerr
						}
						errs[p] = err
					}(p)
				}
				wg.Wait()
				for _, err := range errs {
					if err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(r)*per*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
		})
	}
}
