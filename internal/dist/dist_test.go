package dist

import (
	"context"
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	chantransport "kronlab/internal/dist/transport/chan"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func TestNewClusterValidation(t *testing.T) {
	if _, err := newCluster(0, 0, 0); err == nil {
		t.Error("0-rank cluster should error")
	}
	for _, rg := range [][2]int{{2, 2}, {-1, 2}, {3, 5}} {
		if _, err := newCluster(4, rg[0], rg[1]); err == nil {
			t.Errorf("local range [%d,%d) of 4 ranks should error", rg[0], rg[1])
		}
	}
	c, err := newCluster(4, 0, 4)
	if err != nil || c.r != 4 || len(c.ranks) != 4 {
		t.Fatalf("newCluster(4, 0, 4): %v", err)
	}
	c, err = newCluster(6, 2, 5)
	if err != nil || len(c.ranks) != 3 || c.ranks[0].ID() != 2 || c.ranks[0].Size() != 6 {
		t.Fatalf("newCluster(6, 2, 5): %v", err)
	}
}

// TestExchangeAllToAll drives the batch path the transports keep for their
// conformance suite and the benchmark probes (the engine sends no batch) on
// chantransport.New(R), from the ranks of a cluster: every rank sends a pooled batch (id, to) to every
// rank, its own through progress, and each rank must receive one batch from
// each sender, addressed to it, with every buffer back in the pool.
func TestExchangeAllToAll(t *testing.T) {
	const R = 5
	c, _ := newCluster(R, 0, R)
	tr := chantransport.New(R)
	received := make([][]graph.Edge, R)
	err := c.run(context.Background(), func(rk *Rank) error {
		var got []graph.Edge
		keep := func(b transport.Batch) {
			got = append(got, b.Edges...)
			c.putBuf(b.Edges)
		}
		for to := 0; to < R; to++ {
			buf := append(c.getBuf(1), graph.Edge{U: int64(rk.ID()), V: int64(to)})
			if err := tr.SendBatch(rk.Context(), transport.Batch{From: rk.ID(), Dest: to, Edges: buf}, keep); err != nil {
				return err
			}
		}
		for len(got) < R {
			b, err := tr.Recv(rk.Context(), rk.ID())
			if err != nil {
				return err
			}
			keep(b)
		}
		received[rk.ID()] = got
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for to := 0; to < R; to++ {
		if len(received[to]) != R {
			t.Fatalf("rank %d received %d edges, want %d", to, len(received[to]), R)
		}
		seen := make(map[int64]bool)
		for _, e := range received[to] {
			if e.V != int64(to) {
				t.Fatalf("rank %d received misrouted edge %v", to, e)
			}
			seen[e.U] = true
		}
		if len(seen) != R {
			t.Fatalf("rank %d missing senders: %v", to, seen)
		}
	}
	if n := c.outstandingBufs(); n != 0 {
		t.Fatalf("%d pooled buffers outstanding after the exchange", n)
	}
}

// TestExchangeLargeVolume pushes the same batch path well past the batch
// size: each rank sends 5000 edges, edge i to rank i mod R, in pooled
// batches of DefaultBatchSize per destination, and every edge must arrive
// once, at the rank it was addressed to, with every buffer back.
func TestExchangeLargeVolume(t *testing.T) {
	const R, n = 3, 5000
	c, _ := newCluster(R, 0, R)
	tr := chantransport.New(R)
	var total int64
	err := c.run(context.Background(), func(rk *Rank) error {
		var count int64
		var misrouted error
		keep := func(b transport.Batch) {
			for _, e := range b.Edges {
				if int(e.U)%R != rk.ID() || e.V != int64(b.From) {
					misrouted = fmt.Errorf("rank %d received misrouted edge %v from rank %d", rk.ID(), e, b.From)
				}
			}
			count += int64(len(b.Edges))
			c.putBuf(b.Edges)
		}
		send := func(to int, buf []graph.Edge) error {
			return tr.SendBatch(rk.Context(), transport.Batch{From: rk.ID(), Dest: to, Edges: buf}, keep)
		}
		staged := make([][]graph.Edge, R)
		for i := 0; i < n; i++ {
			to := i % R
			if staged[to] == nil {
				staged[to] = c.getBuf(DefaultBatchSize)
			}
			if staged[to] = append(staged[to], graph.Edge{U: int64(i), V: int64(rk.ID())}); len(staged[to]) == DefaultBatchSize {
				if err := send(to, staged[to]); err != nil {
					return err
				}
				staged[to] = nil
			}
		}
		for to, buf := range staged {
			if buf != nil {
				if err := send(to, buf); err != nil {
					return err
				}
			}
		}
		for want := int64(R * ((n - rk.ID() + R - 1) / R)); count < want; {
			b, err := tr.Recv(rk.Context(), rk.ID())
			if err != nil {
				return err
			}
			keep(b)
		}
		atomic.AddInt64(&total, count)
		return misrouted
	})
	if err != nil {
		t.Fatal(err)
	}
	if total != R*n {
		t.Fatalf("delivered %d, want %d", total, R*n)
	}
	if out := c.outstandingBufs(); out != 0 {
		t.Fatalf("%d pooled buffers outstanding after the exchange", out)
	}
}

func TestPartitionArcs(t *testing.T) {
	arcs := make([]graph.Edge, 10)
	parts := PartitionArcs(arcs, 3)
	if len(parts) != 3 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total int
	for _, p := range parts {
		total += len(p)
	}
	if total != 10 {
		t.Errorf("partition lost arcs: %d", total)
	}
	// More parts than arcs → trailing empties, no panic.
	parts = PartitionArcs(arcs[:2], 5)
	var nonEmpty int
	for _, p := range parts {
		if len(p) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty != 2 {
		t.Errorf("nonEmpty = %d, want 2", nonEmpty)
	}
}

// The central correctness property: distributed generation produces
// exactly the serial product, for every rank count and both partitioning
// schemes and every kind of source owner: the hash, the block map, and
// blocks so large that every rank but rank 0 owns nothing.
func TestGenerateMatchesSerial(t *testing.T) {
	a := gen.ER(9, 0.4, 1).WithFullSelfLoops()
	b := gen.PrefAttach(7, 2, 2)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	owners := map[string]Owner{
		"bySource": OwnerBySource,
		"starved":  OwnerByBlock(16 * a.NumVertices() * b.NumVertices()), // rank 0 owns every row
		"byBlock":  OwnerByBlock(a.NumVertices() * b.NumVertices()),
	}
	for name, owner := range owners {
		for _, r := range []int{1, 2, 3, 4, 7, 16} {
			res1, err := GenerateChain(mustChain(a, b), r, owner, false)
			if err != nil {
				t.Fatalf("%s R=%d 1D: %v", name, r, err)
			}
			got1, err := res1.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if !got1.Equal(want) {
				t.Fatalf("%s R=%d: 1D product differs from serial", name, r)
			}
			res2, err := GenerateChain(mustChain(a, b), r, owner, true)
			if err != nil {
				t.Fatalf("%s R=%d 2D: %v", name, r, err)
			}
			got2, err := res2.Collect()
			if err != nil {
				t.Fatal(err)
			}
			if !got2.Equal(want) {
				t.Fatalf("%s R=%d: 2D product differs from serial", name, r)
			}
		}
	}
}

// Property: for random small factors and random R, 1D and 2D agree with
// serial generation.
func TestPropertyDistributedEqualsSerial(t *testing.T) {
	f := func(seedA, seedB int64, rRaw uint8) bool {
		r := int(rRaw%12) + 1
		a := gen.ER(6, 0.5, seedA)
		b := gen.ER(5, 0.5, seedB)
		if a.NumArcs() == 0 || b.NumArcs() == 0 {
			return true
		}
		want, err := core.Product(a, b)
		if err != nil {
			return false
		}
		res1, err := GenerateChain(mustChain(a, b), r, nil, false)
		if err != nil {
			return false
		}
		g1, err := res1.Collect()
		if err != nil {
			return false
		}
		res2, err := GenerateChain(mustChain(a, b), r, nil, true)
		if err != nil {
			return false
		}
		g2, err := res2.Collect()
		if err != nil {
			return false
		}
		return g1.Equal(want) && g2.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestStatsAccounting(t *testing.T) {
	a := gen.ER(8, 0.5, 3)
	b := gen.ER(8, 0.5, 4)
	res, err := GenerateChain(mustChain(a, b), 4, OwnerBySource, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.EdgesGenerated != a.NumArcs()*b.NumArcs() {
		t.Errorf("generated %d, want %d", res.Stats.EdgesGenerated, a.NumArcs()*b.NumArcs())
	}
	if res.TotalStored() != res.Stats.EdgesGenerated {
		t.Errorf("stored %d != generated %d", res.TotalStored(), res.Stats.EdgesGenerated)
	}
	if res.MaxRankStorage() > res.TotalStored() || res.MaxRankStorage() == 0 {
		t.Errorf("MaxRankStorage %d out of range", res.MaxRankStorage())
	}
}

func TestCountOnly(t *testing.T) {
	a := gen.ER(10, 0.4, 5)
	b := gen.ER(9, 0.4, 6)
	want := a.NumArcs() * b.NumArcs()
	for _, r := range []int{1, 3, 8} {
		for _, twoD := range []bool{false, true} {
			got, err := countOnly(mustChain(a, b), r, twoD)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("R=%d twoD=%v: counted %d, want %d", r, twoD, got, want)
			}
		}
	}
}

func TestGrid2D(t *testing.T) {
	cases := []struct{ r, rh, q int }{
		{1, 1, 1}, {2, 2, 1}, {3, 2, 2}, {4, 2, 2}, {5, 3, 2}, {9, 3, 3}, {10, 4, 3},
	}
	for _, c := range cases {
		g := NewGrid2D(c.r)
		if g.RHalf != c.rh || g.Q != c.q {
			t.Errorf("Grid2D(%d) = %+v, want (%d,%d)", c.r, g, c.rh, c.q)
		}
		if g.Tiles() < c.r {
			t.Errorf("Grid2D(%d): %d tiles < %d ranks", c.r, g.Tiles(), c.r)
		}
		// Tile coordinates are a bijection onto the grid.
		seen := make(map[[2]int]bool)
		for t0 := 0; t0 < g.Tiles(); t0++ {
			a, b := g.TileOf(t0)
			if a < 0 || a >= g.RHalf || b < 0 || b >= g.Q {
				t.Fatalf("tile %d out of grid: (%d,%d)", t0, a, b)
			}
			seen[[2]int{a, b}] = true
		}
		if len(seen) != g.Tiles() {
			t.Errorf("Grid2D(%d): tile map not injective", c.r)
		}
	}
}

// Rem. 1's point: with R > |arcs_A|, 1D parallelism saturates while 2D
// keeps more ranks busy.
func TestEffectiveParallelism(t *testing.T) {
	a := gen.ER(6, 0.3, 7) // few arcs
	b := gen.ER(30, 0.3, 8)
	r := int(a.NumArcs()) * 4
	if EffectiveParallelism1D(a, r) != int(a.NumArcs()) {
		t.Errorf("1D parallelism should cap at |arcs_A| = %d", a.NumArcs())
	}
	if e2 := EffectiveParallelism2D(a, b, r); e2 <= int(a.NumArcs()) {
		t.Errorf("2D parallelism %d should exceed the 1D cap %d", e2, a.NumArcs())
	}
}

func TestGenerateInvalidR(t *testing.T) {
	a := gen.ER(4, 0.5, 9)
	if _, err := GenerateChain(mustChain(a, a), 0, nil, false); err == nil {
		t.Error("R=0 should error")
	}
	if _, err := GenerateChain(mustChain(a, a), -1, nil, true); err == nil {
		t.Error("R<0 should error")
	}
	if _, err := countOnly(mustChain(a, a), 0, false); err == nil {
		t.Error("count-only R=0 should error")
	}
}

// GenerateOwned must produce exactly the serial product, and per-rank arc
// sets must match the OwnerByBlock map.
func TestGenerateOwnedMatchesSerial(t *testing.T) {
	a := gen.PrefAttach(9, 2, 1).WithFullSelfLoops()
	b := gen.ER(7, 0.5, 2)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	nC := a.NumVertices() * b.NumVertices()
	for _, r := range []int{1, 2, 3, 5, 8, 64} {
		res, err := GenerateOwned(a, b, r)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		got, err := res.Collect()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("R=%d: owned generation differs from serial", r)
		}
		// Each stored arc's source must belong to the rank's block.
		owner := OwnerByBlock(nC).BindSource(r, b.NumVertices())
		for rank, arcs := range res.PerRank {
			for _, e := range arcs {
				if owner(e.U) != rank {
					t.Fatalf("R=%d: arc %v stored on rank %d, owner %d", r, e, rank, owner(e.U))
				}
			}
		}
	}
}

// Property: GenerateOwned and GenerateChain under OwnerByBlock — the two runs
// bench's owned-over-routed ratio times — store the same arcs on every rank,
// for random factors and R.
func TestPropertyOwnedEqualsRouted(t *testing.T) {
	f := func(seedA, seedB int64, rRaw uint8) bool {
		r := int(rRaw%10) + 1
		a := gen.ER(6, 0.5, seedA)
		b := gen.ER(5, 0.5, seedB)
		nC := a.NumVertices() * b.NumVertices()
		owned, err := GenerateOwned(a, b, r)
		if err != nil {
			return false
		}
		routed, err := GenerateChain(mustChain(a, b), r, OwnerByBlock(nC), false)
		if err != nil {
			return false
		}
		for rank := range owned.PerRank {
			g1, err := graph.New(nC, owned.PerRank[rank])
			if err != nil {
				return false
			}
			g2, err := graph.New(nC, routed.PerRank[rank])
			if err != nil {
				return false
			}
			if !g1.Equal(g2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// GenerateChainToStore under 1D must stream exactly the serial product to disk with
// zero in-memory accumulation of C.
func TestGenerate1DToStore(t *testing.T) {
	a := gen.PrefAttach(10, 2, 11)
	b := gen.ER(8, 0.5, 12)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []int{1, 3, 5} {
		dir := t.TempDir()
		st, stats, err := GenerateChainToStore(mustChain(a, b), r, dir, false)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if st.TotalEdges() != want.NumArcs() {
			t.Fatalf("R=%d: stored %d arcs, want %d", r, st.TotalEdges(), want.NumArcs())
		}
		if stats.EdgesGenerated != want.NumArcs() {
			t.Fatalf("R=%d: generated %d, want %d", r, stats.EdgesGenerated, want.NumArcs())
		}
		got, err := st.LoadGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("R=%d: on-disk product differs from serial", r)
		}
		// Shard i must contain only edges owned by rank i.
		for i := 0; i < r; i++ {
			if err := st.IterShard(i, func(u, v int64) bool {
				if OwnerBySource(u, v, r) != i {
					t.Fatalf("R=%d: edge (%d,%d) in wrong shard %d", r, u, v, i)
				}
				return true
			}); err != nil {
				t.Fatal(err)
			}
		}
	}
}
