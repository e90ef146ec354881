package dist

// Chain-engine equivalence tests: the distributed generator at k>2 —
// in-proc 1D/2D, streamed, stored, TCP cluster, and
// crash-then-recover across real process boundaries — must reproduce the
// serial chain product (core.KronPower / Chain.Materialize)
// edge-for-edge. Two-factor parity stays covered by the existing suites;
// these pin the generalized code path.

import (
	"context"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
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

// powerChain3 is the fixed k=3 power chain of the equivalence suite.
func powerChain3(t *testing.T) (*core.Chain, *graph.Graph) {
	t.Helper()
	a := gen.PrefAttach(6, 2, 51)
	ch, err := core.PowerChain(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.KronPower(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	return ch, want
}

// heteroChain3 is a heterogeneous three-factor chain plus its serial
// reference.
func heteroChain3(t *testing.T) (*core.Chain, *graph.Graph) {
	t.Helper()
	ch, err := core.NewChain(gen.PrefAttach(6, 2, 52), gen.ER(5, 0.5, 53), gen.Ring(4))
	if err != nil {
		t.Fatal(err)
	}
	want, err := ch.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	return ch, want
}

// TestGenerateChainMatchesSerial sweeps decomposition × owner (nil, the
// default, and OwnerBySource named) × chain shape: every distributed k=3
// product must equal the serial reference.
func TestGenerateChainMatchesSerial(t *testing.T) {
	for _, shape := range []struct {
		name  string
		build func(*testing.T) (*core.Chain, *graph.Graph)
	}{
		{"power3", powerChain3},
		{"hetero3", heteroChain3},
	} {
		ch, want := shape.build(t)
		for _, tc := range []struct {
			name  string
			twoD  bool
			owner Owner
		}{
			{"1d-routed", false, nil},
			{"2d-routed", true, nil},
			{"1d-owned", false, OwnerBySource},
			{"2d-owned", true, OwnerBySource},
		} {
			t.Run(shape.name+"/"+tc.name, func(t *testing.T) {
				res, err := GenerateChain(ch, 5, tc.owner, tc.twoD)
				if err != nil {
					t.Fatal(err)
				}
				got, err := res.Collect()
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatal("distributed chain product differs from serial reference")
				}
			})
		}
	}
}

// TestCollectAllocatesOnce: Collect merges the ranks' arcs into one slice
// sized from TotalStored, so it allocates no more than graph.New over a
// copy of the merged arcs — where the merged slice grew by doubling, each
// growth was one more.
func TestCollectAllocatesOnce(t *testing.T) {
	ch, _ := heteroChain3(t)
	res, err := GenerateChain(ch, 8, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	var merged []graph.Edge
	for _, s := range res.PerRank {
		merged = append(merged, s...)
	}
	var failed error
	newOnCopy := testing.AllocsPerRun(5, func() {
		if _, err := graph.New(res.NC, slices.Clone(merged)); err != nil {
			failed = err
		}
	})
	collect := testing.AllocsPerRun(5, func() {
		if _, err := res.Collect(); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if collect > newOnCopy {
		t.Fatalf("Collect allocates %v times, graph.New over a copy of its arcs %v", collect, newOnCopy)
	}
}

// TestStreamChainMatchesSerial: the bounded-memory stream path carries
// exactly the chain's arc multiset, at every retry budget.
func TestStreamChainMatchesSerial(t *testing.T) {
	ch, want := heteroChain3(t)
	for _, retries := range streamBudgets {
		arcs, _ := streamArcs(t, ch, 4, true, 7, 0, -1, Recovery{MaxRetries: retries})
		got := map[graph.Edge]int{}
		for _, e := range arcs {
			got[e]++
		}
		var total int64
		want.Arcs(func(u, v int64) bool {
			if got[graph.Edge{U: u, V: v}] != 1 {
				t.Fatalf("retries=%d: arc (%d,%d) streamed %d times", retries, u, v, got[graph.Edge{U: u, V: v}])
			}
			total++
			return true
		})
		if int64(len(got)) != total {
			t.Fatalf("retries=%d: stream carried %d distinct arcs, want %d", retries, len(got), total)
		}
	}
}

// TestGenerateChainToStore: the store path at k=3 produces the serial
// product on disk, one shard per rank.
func TestGenerateChainToStore(t *testing.T) {
	ch, want := powerChain3(t)
	dir := t.TempDir()
	st, _, err := GenerateChainToStore(ch, 4, dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalEdges() != want.NumArcs() {
		t.Fatalf("stored %d arcs, want %d", st.TotalEdges(), want.NumArcs())
	}
	got, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("chain store stream differs from serial reference")
	}
}

// TestChainPlanHashSensitivity: the handshake fingerprint must separate
// chain depths and tail shapes — a k=2 plan of A⊗A and the k=3 plan of
// A⊗A⊗A must not collide, nor must reordered heterogeneous chains.
func TestChainPlanHashSensitivity(t *testing.T) {
	a := gen.PrefAttach(6, 2, 51)
	ch2, err := core.PowerChain(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	ch3, err := core.PowerChain(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanChain1D(ch2, 4)
	if err != nil {
		t.Fatal(err)
	}
	p3, err := PlanChain1D(ch3, 4)
	if err != nil {
		t.Fatal(err)
	}
	p3b, err := PlanChain1D(ch3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(p3) != PlanHash(p3b) {
		t.Fatal("identical chain plans hash differently")
	}
	if PlanHash(p2) == PlanHash(p3) {
		t.Fatal("k=2 and k=3 plans collide")
	}
	b, c := gen.ER(5, 0.5, 53), gen.Ring(4)
	abc, err := core.NewChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	acb, err := core.NewChain(a, c, b)
	if err != nil {
		t.Fatal(err)
	}
	pABC, err := PlanChain1D(abc, 4)
	if err != nil {
		t.Fatal(err)
	}
	pACB, err := PlanChain1D(acb, 4)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(pABC) == PlanHash(pACB) {
		t.Fatal("reordered chain tails collide")
	}
}

// TestChainClusterParity folds a 4-process TCP cluster into this test
// process and diffs the shared k=3 store against core.KronPower.
func TestChainClusterParity(t *testing.T) {
	ch, want := powerChain3(t)
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
			plan, err := planForChain(ch, tc.r, tc.twoD)
			if err != nil {
				t.Fatal(err)
			}
			hash := PlanHash(plan)
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
			stores := make([]*store.Store, nprocs)
			errs := make([]error, nprocs)
			for p := 0; p < nprocs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					cc := ClusterConfig{Procs: procs, Self: p, Node: nodes[p]}
					stores[p], _, errs[p] = GenerateChainClusterToStore(ctx, ch, dir, tc.twoD, cc, Recovery{})
				}(p)
			}
			wg.Wait()
			for p, err := range errs {
				if err != nil {
					t.Errorf("proc %d: %v", p, err)
				}
			}
			if t.Failed() {
				t.FailNow()
			}
			st := stores[0]
			if st == nil {
				t.Fatal("head returned no store")
			}
			got, err := st.LoadGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatal("chain cluster product differs from serial reference")
			}
		})
	}
}

// envChainHelper selects the chain worker body on re-exec; the remaining
// cluster env keys are shared with the two-factor kill suite.
const envChainHelper = "KRONLAB_CHAIN_CLUSTER_HELPER"

// chainKillFactor seeds the crash-recovery chain: every process derives
// the identical k=3 plan (and plan hash) with no factor shipping.
func chainKillFactor() *graph.Graph { return gen.PrefAttach(7, 2, 61) }

// chainKillConfig is the shared shape of the chain crash-recovery
// cluster, derived independently by driver and helpers; by source, as
// killTestConfig is.
func chainKillConfig(dir string, r int) (Config, Plan, error) {
	ch, err := core.PowerChain(chainKillFactor(), 3)
	if err != nil {
		return Config{}, Plan{}, err
	}
	plan, err := PlanChain1D(ch, r)
	if err != nil {
		return Config{}, Plan{}, err
	}
	return Config{
		Plan:      plan,
		Owner:     OwnerBySource,
		Sink:      NewStoreSink(dir, r),
		BatchSize: 32,
		Recovery:  Recovery{MaxRetries: 3, Backoff: 10 * time.Millisecond},
	}, plan, nil
}

// TestChainClusterHelperProcess is not a test: it is the worker body of
// TestChainClusterKillRecovery, entered only on re-exec.
func TestChainClusterHelperProcess(t *testing.T) {
	if os.Getenv(envChainHelper) != "1" {
		t.Skip("helper body for TestChainClusterKillRecovery")
	}
	addrs := strings.Split(os.Getenv(envClusterAddrs), ",")
	self, err := strconv.Atoi(os.Getenv(envClusterSelf))
	if err != nil {
		t.Fatalf("bad self index: %v", err)
	}
	cfg, plan, err := chainKillConfig(os.Getenv(envClusterDir), len(addrs))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = dieInSink(cfg.Sink)
	node := parentNode(t, self, PlanHash(plan))
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cc := ClusterConfig{Procs: transport.SplitRanks(addrs, plan.R), Self: self, Node: node}
	if _, err := RunCluster(ctx, cc, cfg); err != nil {
		t.Fatalf("worker %d: %v", self, err)
	}
}

// TestChainClusterKillRecovery is the crash-then-recover contract at
// k=3 across real process boundaries: one worker exits inside its sink
// mid-run, is respawned clean, and the recovered store must hold
// exactly the serial A^{⊗3} — the checkpoint/replay identities survive
// the chain generalization.
func TestChainClusterKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const nprocs = 4
	const victim = 1
	lns, addrs := clusterListeners(t, nprocs)
	dir := t.TempDir()
	cfg, plan, err := chainKillConfig(dir, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.KronPower(chainKillFactor(), 3)
	if err != nil {
		t.Fatal(err)
	}
	node := tcp.NewNodeOn(lns[0], 0, PlanHash(plan))
	defer node.Close()

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	spawn := func(self int, kill int64) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestChainClusterHelperProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			envChainHelper+"=1",
			envClusterAddrs+"="+strings.Join(addrs, ","),
			envClusterSelf+"="+strconv.Itoa(self),
			envClusterDir+"="+dir,
			envClusterKill+"="+strconv.FormatInt(kill, 10),
		)
		return captureOutput(withListener(t, cmd, lns[self]))
	}

	exits := make(chan childExit, nprocs-1)
	for p := 1; p < nprocs; p++ {
		kill := int64(0)
		if p == victim {
			kill = 5
		}
		w := spawn(p, kill)
		if err := start(w); err != nil {
			t.Fatal(err)
		}
		if p == victim {
			respawnAfter(exits, "worker "+strconv.Itoa(p), w, func() *exec.Cmd { return spawn(victim, 0) })
		} else {
			waitChild(exits, "worker "+strconv.Itoa(p), w)
		}
	}
	var stats Stats
	awaitCluster(t, goHead(ctx, ClusterConfig{Procs: transport.SplitRanks(addrs, nprocs), Self: 0, Node: node}, cfg, &stats), exits, nprocs-1)

	if stats.RecoveredRuns != 1 {
		t.Fatalf("RecoveredRuns = %d, want 1", stats.RecoveredRuns)
	}
	st, err := store.Recover(dir, plan.NC)
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("recovered chain cluster product differs from serial A^{⊗3}")
	}
}
