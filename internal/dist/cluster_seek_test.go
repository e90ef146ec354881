package dist

import (
	"context"
	"sync"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// TestClusterSeekParity drives the windowed store path over a real
// 4-process TCP cluster: the cluster generating the [offset, offset+limit)
// window must store exactly the arcs the full stream's window holds —
// and a cluster sliced at a different offset must refuse the handshake
// (PlanHash folds the window into every tile's identity).
func TestClusterSeekParity(t *testing.T) {
	ch, err := core.NewChain(gen.PrefAttach(10, 2, 91), gen.ER(8, 0.5, 92))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d/r5-uneven", 5, false},
		{"2d/r6", 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nprocs = 4
			want := chainStreamRef(t, ch, tc.r, tc.twoD)
			total := int64(len(want))
			offset, limit := total/4, total/2
			window := want[offset : offset+limit]

			plan, err := planForChain(ch, tc.r, tc.twoD)
			if err != nil {
				t.Fatal(err)
			}
			sliced, err := plan.Slice(offset, limit)
			if err != nil {
				t.Fatal(err)
			}
			hash := PlanHash(sliced)
			if hash == PlanHash(plan) {
				t.Fatal("PlanHash does not fold the stream window")
			}
			nodes := make([]*tcp.Node, nprocs)
			addrs := make([]string, nprocs)
			for i := range nodes {
				n, err := tcp.NewNode("127.0.0.1:0", i, hash)
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				defer n.Close()
				nodes[i] = n
				addrs[i] = n.Addr()
			}
			procs := transport.SplitRanks(addrs, tc.r)
			dir := t.TempDir()
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()

			var wg sync.WaitGroup
			stores := make([]*storeResult, nprocs)
			for p := 0; p < nprocs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					cc := ClusterConfig{Procs: procs, Self: p, Node: nodes[p]}
					st, _, err := generateChainClusterToStoreFrom(ctx, ch, dir, tc.twoD, offset, limit, cc, Recovery{})
					stores[p] = &storeResult{st: st, err: err}
				}(p)
			}
			wg.Wait()
			for p, res := range stores {
				if res.err != nil {
					t.Errorf("proc %d: %v", p, res.err)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			st := stores[0].st
			if st == nil {
				t.Fatal("head returned no store")
			}
			if st.TotalEdges() != limit {
				t.Fatalf("cluster stored %d arcs, want the window's %d", st.TotalEdges(), limit)
			}
			got, err := st.LoadGraph()
			if err != nil {
				t.Fatal(err)
			}
			wantG, err := graph.New(ch.NumVertices(), window)
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(wantG) {
				t.Fatal("cluster window differs from the full stream's window")
			}
		})
	}
}

type storeResult struct {
	st  *store.Store
	err error
}
