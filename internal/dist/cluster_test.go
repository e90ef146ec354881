package dist

// Cluster-mode tests: the same engine across process boundaries, the
// processes joined by TCP control links. The parity suite folds a 4-proc
// cluster into this test process (one goroutine per "process", each with
// its own Node and rank range) and diffs the shared on-disk product against the serial
// reference. The kill suite is the real thing: worker *processes*
// (re-execs of this test binary), one of which exits inside its sink
// mid-run, is respawned by the driver on the same listener, and the
// recovered cluster output must still match the reference edge-for-edge.

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"net"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/ledger"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// TestPlanHash pins the handshake fingerprint's sensitivity: identical
// plans hash identically across independent derivations, and any change
// to the decomposition — rank count, partitioning direction — changes it.
func TestPlanHash(t *testing.T) {
	a := gen.PrefAttach(12, 2, 31)
	b := gen.ER(9, 0.5, 32)
	p1, err := PlanChain1D(mustChain(a, b), 4)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := PlanChain1D(mustChain(a, b), 4)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(p1) != PlanHash(p2) {
		t.Fatal("identical plans hash differently")
	}
	p3, err := PlanChain1D(mustChain(a, b), 5)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(p1) == PlanHash(p3) {
		t.Fatal("different rank counts collide")
	}
	p4, err := PlanChain2D(mustChain(a, b), 4)
	if err != nil {
		t.Fatal(err)
	}
	if PlanHash(p1) == PlanHash(p4) {
		t.Fatal("1D and 2D decompositions collide")
	}
}

// TestPlanHashPinned pins the handshake fingerprint's bytes for a 1D and a
// 2D plan at k = 2 and k = 3: a process built from an earlier commit
// handshakes with this one only while they match, so a refactor of the plan
// must keep them.
func TestPlanHashPinned(t *testing.T) {
	a := gen.PrefAttach(12, 2, 31)
	b := gen.ER(9, 0.5, 32)
	for _, c := range []struct {
		name string
		ch   *core.Chain
		r    int
		twoD bool
		hash uint64
	}{
		{"1d/k2", mustChain(a, b), 4, false, 0x1b45650b105cbfaa},
		{"2d/k2", mustChain(a, b), 5, true, 0xc0a2ccd2afa9b3c8},
		{"1d/k3", mustChain(a, b, a), 4, false, 0xa2f0fcba27017668},
		{"2d/k3", mustChain(a, b, a), 9, true, 0xb58838f72a1b3625},
	} {
		plan, err := planForChain(c.ch, c.r, c.twoD)
		if err != nil {
			t.Fatal(err)
		}
		if got := PlanHash(plan); got != c.hash {
			t.Errorf("%s: PlanHash = %#016x, pinned %#016x", c.name, got, c.hash)
		}
	}
}

// TestClusterParity runs a 4-process cluster folded into this test
// process — one goroutine per proc, real TCP between them — for both
// decompositions and an uneven rank split, and asserts the shared store
// holds exactly the serial product.
func TestClusterParity(t *testing.T) {
	a := gen.PrefAttach(12, 2, 31)
	b := gen.ER(9, 0.5, 32)
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d/r4", 4, false},
		{"1d/r6-uneven", 6, false},
		{"2d/r6-uneven", 6, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nprocs = 4
			plan, err := planForChain(mustChain(a, b), tc.r, tc.twoD)
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
			stats := make([]Stats, nprocs)
			errs := make([]error, nprocs)
			for p := 0; p < nprocs; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					cc := ClusterConfig{Procs: procs, Self: p, Node: nodes[p]}
					stores[p], stats[p], errs[p] = GenerateChainClusterToStore(ctx, mustChain(a, b), dir, tc.twoD, cc, Recovery{})
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
			for p := 1; p < nprocs; p++ {
				if stores[p] != nil {
					t.Fatalf("worker %d returned a store; only the head finalizes", p)
				}
			}
			st := stores[0]
			if st == nil {
				t.Fatal("head returned no store")
			}
			if st.TotalEdges() != want.NumArcs() {
				t.Fatalf("stored %d arcs, want %d", st.TotalEdges(), want.NumArcs())
			}
			got, err := st.LoadGraph()
			if err != nil {
				t.Fatal(err)
			}
			if !got.Equal(want) {
				t.Fatal("cluster product differs from serial reference")
			}
			var gen, stored int64
			for p := 0; p < nprocs; p++ {
				for rk := procs[p].Lo; rk < procs[p].Hi; rk++ {
					gen += stats[p].PerRankGenerated[rk]
					stored += stats[p].PerRankStored[rk]
				}
			}
			if gen != want.NumArcs() || stored != want.NumArcs() {
				t.Fatalf("cluster counters: generated %d stored %d, want %d", gen, stored, want.NumArcs())
			}
		})
	}
}

// TestClusterHandshakeRejectsPlanMismatch: a worker that derived a
// different plan cannot join, and neither side waits for the other. In a
// two-process loopback cluster whose worker planned 2D, the head refuses
// the worker's control link for its plan hash; both RunCluster calls must
// return errors wrapping tcp.ErrHandshake within 5 s, under a 60 s context
// the head once waited out whole for a worker that could never join.
func TestClusterHandshakeRejectsPlanMismatch(t *testing.T) {
	const r = 4
	plans := make([]Plan, 2)
	for p, twoD := range []bool{false, true} {
		plan, err := planForChain(mustChain(killTestFactors()), r, twoD)
		if err != nil {
			t.Fatal(err)
		}
		plans[p] = plan
	}
	node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plans[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	procs := transport.SplitRanks([]string{node.Addr(), "127.0.0.1:0"}, r)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	start := time.Now()
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for p := range plans {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			cc := ClusterConfig{Procs: procs, Self: p}
			if p == 0 {
				cc.Node = node
			}
			_, errs[p] = RunCluster(ctx, cc, Config{Plan: plans[p], Sink: &CountSink{}, Recovery: Recovery{MaxRetries: 3}})
		}(p)
	}
	wg.Wait()
	elapsed := time.Since(start)
	for p, err := range errs {
		if !errors.Is(err, tcp.ErrHandshake) {
			t.Errorf("proc %d returned %v, want an error wrapping tcp.ErrHandshake", p, err)
		}
	}
	if errs[0] != nil && !strings.Contains(errs[0].Error(), "proc 1") {
		t.Errorf("head returned %v, want it to name proc 1", errs[0])
	}
	if elapsed > 5*time.Second {
		t.Errorf("the refusal took %v to end both runs, want under 5s", elapsed)
	}
}

// Environment keys of the cluster helper process (see
// TestClusterHelperProcess). The driver re-execs this test binary with
// these set; KILL > 0 makes the process exit inside its KILL-th sink block
// (exitAfterSink).
const (
	envClusterHelper  = "KRONLAB_CLUSTER_HELPER"
	envClusterAddrs   = "KRONLAB_CLUSTER_ADDRS"
	envClusterSelf    = "KRONLAB_CLUSTER_SELF"
	envClusterDir     = "KRONLAB_CLUSTER_DIR"
	envClusterKill    = "KRONLAB_CLUSTER_KILL"
	envClusterOwned   = "KRONLAB_CLUSTER_OWNED"   // the owner-side death cluster (ownedKillConfig)
	envClusterLedger  = "KRONLAB_CLUSTER_LEDGER"  // head: durable run ledger path
	envClusterRetries = "KRONLAB_CLUSTER_RETRIES" // workers: head re-dial budget
)

// killTestFactors is the fixed factor pair of the crash-recovery
// cluster — seeded generators, so the driver and every helper process
// derive identical plans (and plan hashes) with no factor shipping.
func killTestFactors() (*graph.Graph, *graph.Graph) {
	return gen.PrefAttach(16, 2, 41), gen.ER(10, 0.5, 42)
}

// killTestConfig is the shared shape of the crash-recovery cluster: the
// driver (head) and every helper (worker) derive it independently. It
// stores by source, as every store run does.
func killTestConfig(dir string, r int) (Config, Plan, error) {
	a, b := killTestFactors()
	plan, err := PlanChain1D(mustChain(a, b), r)
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

// TestClusterHelperProcess is not a test: it is the worker-process body
// of TestClusterKillRecovery, entered only when the driver re-execs the
// test binary with the helper environment set.
func TestClusterHelperProcess(t *testing.T) {
	if os.Getenv(envClusterHelper) != "1" {
		t.Skip("helper body for TestClusterKillRecovery")
	}
	addrs := strings.Split(os.Getenv(envClusterAddrs), ",")
	self, err := strconv.Atoi(os.Getenv(envClusterSelf))
	if err != nil {
		t.Fatalf("bad self index: %v", err)
	}
	cfg, plan, err := killTestConfig(os.Getenv(envClusterDir), len(addrs))
	if os.Getenv(envClusterOwned) == "1" {
		// TestClusterOwnedDeathRecovery's worker: two ranks a process, by
		// source blocks.
		cfg, plan, err = ownedKillConfig(os.Getenv(envClusterDir), 2*len(addrs))
	}
	if err != nil {
		t.Fatal(err)
	}
	cfg.Sink = dieInSink(cfg.Sink)
	node := parentNode(t, self, PlanHash(plan))
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	cc := ClusterConfig{Procs: transport.SplitRanks(addrs, plan.R), Self: self, Node: node}
	if lp := os.Getenv(envClusterLedger); lp != "" && self == 0 {
		cc.LedgerPath = lp
	}
	if hr, _ := strconv.Atoi(os.Getenv(envClusterRetries)); hr > 0 {
		cc.HeadRetries = hr
	}
	if _, err := RunCluster(ctx, cc, cfg); err != nil {
		t.Fatalf("proc %d: %v", self, err)
	}
}

// clusterListeners opens one loopback listener per process of a
// multi-process test. The driver keeps them for the whole test: a child is
// handed its process's listener as fd 3 (withListener), a respawned child
// the same one, and an in-process head builds its Node on its own
// (tcp.NewNodeOn), so no address is ever released and bound again.
func clusterListeners(t *testing.T, n int) ([]*net.TCPListener, []string) {
	t.Helper()
	lns := make([]*net.TCPListener, n)
	addrs := make([]string, n)
	for i := range lns {
		ln, err := net.ListenTCP("tcp", &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { ln.Close() })
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	return lns, addrs
}

// withListener hands ln to cmd as its fd 3; start closes the driver's copy.
func withListener(t *testing.T, cmd *exec.Cmd, ln *net.TCPListener) *exec.Cmd {
	t.Helper()
	f, err := ln.File()
	if err != nil {
		t.Fatal(err)
	}
	cmd.ExtraFiles = []*os.File{f}
	return cmd
}

// start starts cmd and closes the files it was handed: the child holds its
// own copies.
func start(cmd *exec.Cmd) error {
	err := cmd.Start()
	for _, f := range cmd.ExtraFiles {
		f.Close()
	}
	return err
}

// parentNode is a helper child's Node, on the listener its driver handed it
// as fd 3.
func parentNode(t *testing.T, self int, planHash uint64) *tcp.Node {
	t.Helper()
	f := os.NewFile(3, "listener")
	ln, err := net.FileListener(f)
	f.Close()
	if err != nil {
		t.Fatalf("proc %d: the driver's listener: %v", self, err)
	}
	return tcp.NewNodeOn(ln, self, planHash)
}

// dieInSink wraps sink in exitAfterSink when the helper environment asks
// for a death (envClusterKill > 0).
func dieInSink(sink Sink) Sink {
	n, _ := strconv.ParseInt(os.Getenv(envClusterKill), 10, 64)
	if n <= 0 {
		return sink
	}
	dying := &exitAfterSink{Sink: sink}
	dying.left.Store(n)
	return dying
}

// childExit is a cluster test's child process ending: which child, what
// its Wait returned, and what it wrote.
type childExit struct {
	name string
	err  error
	out  string
}

// captureOutput collects cmd's stdout and stderr in one buffer, so a child's
// own t.Fatalf reaches the driver's failure message (see exited).
func captureOutput(cmd *exec.Cmd) *exec.Cmd {
	out := new(bytes.Buffer)
	cmd.Stdout, cmd.Stderr = out, out
	return cmd
}

// exited waits for cmd, started with captureOutput, and reports its end.
func exited(name string, cmd *exec.Cmd) childExit {
	err := cmd.Wait()
	return childExit{name, err, cmd.Stdout.(*bytes.Buffer).String()}
}

// waitChild reports cmd's exit on exits.
func waitChild(exits chan<- childExit, name string, cmd *exec.Cmd) {
	go func() { exits <- exited(name, cmd) }()
}

// respawnAfter waits for victim, which must die by its fault schedule,
// starts respawn() in its place as an external supervisor would, and
// reports that one's exit on exits — or, at once, a victim that exited
// cleanly or a respawn that would not start.
func respawnAfter(exits chan<- childExit, name string, victim *exec.Cmd, respawn func() *exec.Cmd) {
	go func() {
		if e := exited(name, victim); e.err == nil {
			e.err = errors.New("exited cleanly; its fault never fired")
			exits <- e
			return
		}
		re := respawn()
		if err := start(re); err != nil {
			exits <- childExit{name: "respawned " + name, err: err}
			return
		}
		exits <- exited("respawned "+name, re)
	}()
}

// goHead runs the head's RunCluster on its own goroutine and returns the
// channel its error arrives on, *stats set before.
func goHead(ctx context.Context, cc ClusterConfig, cfg Config, stats *Stats) <-chan error {
	done := make(chan error, 1)
	go func() {
		var err error
		*stats, err = RunCluster(ctx, cc, cfg)
		done <- err
	}()
	return done
}

// awaitCluster waits for the head (nil when the head is itself a child
// process) and for n child exits, and fails the test at the first error
// among them: a worker that exits early with an error, or a respawn that
// fails, ends the test at once with the child's cause — its output
// included — instead of after the head has waited out its deadline for a
// process that is not coming. The
// children are started with the test's context, so whatever still runs
// then is killed when the test returns.
func awaitCluster(t *testing.T, head <-chan error, exits <-chan childExit, n int) {
	t.Helper()
	for head != nil || n > 0 {
		select {
		case err := <-head:
			if err != nil {
				t.Fatalf("head: %v", err)
			}
			head = nil
		case e := <-exits:
			if e.err != nil {
				t.Fatalf("%s: %v\n%s", e.name, e.err, e.out)
			}
			n--
		}
	}
}

// TestClusterKillRecovery is the crash-then-recover contract across real
// process boundaries: a 4-process cluster in which one worker exits inside
// its sink mid-run (buffered state lost with it), the driver respawns it
// fault-free on the same listener, and the supervised head replays the
// uncommitted tiles while the two surviving workers resume past what they hold —
// the final store must hold exactly the serial product, with the recovery
// visible in the head's stats.
func TestClusterKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const nprocs = 4
	const victim = 2
	lns, addrs := clusterListeners(t, nprocs)
	dir := t.TempDir()
	cfg, plan, err := killTestConfig(dir, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := killTestFactors()
	want, err := core.Product(a, b)
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
		cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestClusterHelperProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			envClusterHelper+"=1",
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
			kill = 5 // exit inside its 5th sink block
		}
		w := spawn(p, kill)
		if err := start(w); err != nil {
			t.Fatal(err)
		}
		if p == victim {
			// It dies in its sink and is respawned clean.
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
	var retries int64
	for _, n := range stats.RetriesPerRank {
		retries += n
	}
	if retries == 0 {
		t.Fatal("no retries recorded for a run that lost a process")
	}
	st, err := store.Recover(dir, plan.NC)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalEdges() != want.NumArcs() {
		t.Fatalf("recovered store holds %d arcs, want %d", st.TotalEdges(), want.NumArcs())
	}
	got, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("recovered cluster product differs from serial reference")
	}
}

// TestClusterHeadKillRecovery is the tentpole contract: a 4-process TCP
// cluster whose HEAD — the supervisor owning the checkpoint table — exits
// inside its sink mid-run. The driver respawns it on the same listener as
// an external supervisor would; the respawned head
// replays its durable ledger, bumps the head generation, re-accepts the
// parked workers (whose joins re-announce their stored counts), and
// finishes the run. The final store must match the serial product
// edge-for-edge — zero duplicates, each process resuming at its own stored
// counts across the head generation change — and the ledger must replay to
// a done run and hold only identity, gen, epoch and done records.
func TestClusterHeadKillRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process test")
	}
	const nprocs = 4
	lns, addrs := clusterListeners(t, nprocs)
	dir := t.TempDir()
	ledgerPath := dir + "/head.ledger"
	_, plan, err := killTestConfig(dir, nprocs)
	if err != nil {
		t.Fatal(err)
	}
	a, b := killTestFactors()
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}

	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
	defer cancel()
	spawn := func(self int, kill int64) *exec.Cmd {
		cmd := exec.CommandContext(ctx, exe, "-test.run", "^TestClusterHelperProcess$", "-test.count=1")
		cmd.Env = append(os.Environ(),
			envClusterHelper+"=1",
			envClusterAddrs+"="+strings.Join(addrs, ","),
			envClusterSelf+"="+strconv.Itoa(self),
			envClusterDir+"="+dir,
			envClusterKill+"="+strconv.FormatInt(kill, 10),
			envClusterLedger+"="+ledgerPath,
			envClusterRetries+"=12",
		)
		return captureOutput(withListener(t, cmd, lns[self]))
	}

	// Workers first (they park dialing the head), then the doomed head: it
	// exits inside its 5th sink block, mid-run of epoch 0, and is respawned
	// clean; the second generation, like every worker, must exit
	// successfully.
	exits := make(chan childExit, nprocs)
	for p := 1; p < nprocs; p++ {
		w := spawn(p, 0)
		if err := start(w); err != nil {
			t.Fatal(err)
		}
		waitChild(exits, "worker "+strconv.Itoa(p), w)
	}
	head := spawn(0, 5)
	if err := start(head); err != nil {
		t.Fatal(err)
	}
	respawnAfter(exits, "head", head, func() *exec.Cmd { return spawn(0, 0) })
	awaitCluster(t, nil, exits, nprocs)

	// The ledger must replay to a completed generation-2 run and hold only
	// what a restart reads: no stored count and no commitment is journaled.
	lst, err := ledger.Replay(ledgerPath)
	if err != nil {
		t.Fatalf("ledger replay: %v", err)
	}
	if lst.Gen != 2 {
		t.Fatalf("ledger head generation = %d, want 2 (one respawn)", lst.Gen)
	}
	if !lst.Done || lst.DoneErr != "" {
		t.Fatalf("ledger outcome done=%v err=%q, want a clean done record", lst.Done, lst.DoneErr)
	}
	kinds := ledgerKinds(t, ledgerPath)
	for _, k := range kinds {
		switch k {
		case ledger.KindIdentity, ledger.KindGen, ledger.KindEpoch, ledger.KindDone:
		default:
			t.Fatalf("ledger holds a %q record; want only identity, gen, epoch and done: %v", k, kinds)
		}
	}
	if kinds[0] != ledger.KindIdentity || kinds[len(kinds)-1] != ledger.KindDone {
		t.Fatalf("ledger records %v, want identity first and done last", kinds)
	}

	// Edge-for-edge: exact arc count (zero duplicates) and exact set.
	st, err := store.Recover(dir, plan.NC)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalEdges() != want.NumArcs() {
		t.Fatalf("recovered store holds %d arcs, want %d (duplicates or loss across head generations)",
			st.TotalEdges(), want.NumArcs())
	}
	got, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Fatal("store after head respawn differs from serial reference")
	}
}

// ledgerKinds returns the kind of every record of the ledger at path, in
// order, read off its frames: an 8-byte magic, then per record a u32
// length, a u32 checksum and the JSON body.
func ledgerKinds(t *testing.T, path string) []string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []string
	for off := 8; off < len(data); {
		ln := int(binary.LittleEndian.Uint32(data[off:]))
		var rec ledger.Record
		if err := json.Unmarshal(data[off+8:off+8+ln], &rec); err != nil {
			t.Fatalf("ledger record at offset %d: %v", off, err)
		}
		kinds = append(kinds, rec.Kind)
		off += 8 + ln
	}
	return kinds
}

// openCounter is a sink that counts the rank sinks it opens.
type openCounter struct {
	Sink
	opens atomic.Int64
}

func (o *openCounter) Rank(rk *Rank) (RankSink, error) {
	o.opens.Add(1)
	return o.Sink.Rank(rk)
}

// TestRunClusterRefusesProcsThatDoNotTile: every process of a cluster
// refuses, by name and before any sink opens, a process list that does not
// host the plan's ranks [0, R) in order with non-empty ranges — a gap
// (ranks no process runs, whose arcs a run would silently miss), an
// overlap, an empty range, or too few ranks — under no owner and under
// OwnerBySource.
func TestRunClusterRefusesProcsThatDoNotTile(t *testing.T) {
	const r = 4
	plan, err := PlanChain1D(mustChain(gen.ER(6, 0.5, 1), gen.ER(5, 0.5, 2)), r)
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]transport.Proc{
		"gapFirst":   {{Lo: 1, Hi: 4}},
		"gapBetween": {{Lo: 0, Hi: 2}, {Lo: 3, Hi: 4}},
		"overlap":    {{Lo: 0, Hi: 3}, {Lo: 2, Hi: 4}},
		"emptyFirst": {{Lo: 0, Hi: 0}, {Lo: 0, Hi: 4}},
		"emptyLast":  {{Lo: 0, Hi: 4}, {Lo: 4, Hi: 4}},
		"short":      {{Lo: 0, Hi: 3}},
	}
	for name, procs := range cases {
		for _, owner := range []Owner{nil, OwnerBySource} {
			for self := range procs {
				sink := &openCounter{Sink: &CountSink{}}
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				_, err := RunCluster(ctx, ClusterConfig{Procs: procs, Self: self, DialTimeout: 100 * time.Millisecond},
					Config{Plan: plan, Owner: owner, Sink: sink})
				cancel()
				if err == nil || !strings.Contains(err.Error(), "do not tile ranks [0,4)") {
					t.Errorf("%s, owner %v, proc %d: got %v, want a refusal naming the tiling of ranks [0,4)", name, owner != nil, self, err)
				}
				if n := sink.opens.Load(); n != 0 {
					t.Errorf("%s, owner %v, proc %d: %d rank sinks opened before the refusal", name, owner != nil, self, n)
				}
			}
		}
	}
}

// TestClusterHeadFaultUnchanged: the head ran its own attempt, so its own
// fault comes back as the error value it was — a caller's sentinel, a
// cancellation — not flattened to a string the way a worker's
// report has to be to cross the wire.
func TestClusterHeadFaultUnchanged(t *testing.T) {
	const r = 2
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	sentinel := errors.New("sink setup refused")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = RunCluster(ctx,
		ClusterConfig{Procs: transport.SplitRanks([]string{node.Addr()}, r), Node: node},
		Config{Plan: plan, Owner: OwnerBySource, Sink: &failSink{inner: NewMemorySink(r), failID: 1, err: sentinel}})
	if !errors.Is(err, sentinel) {
		t.Fatalf("head returned %v, want the sink's own error value", err)
	}
}

// TestLedgerIdentityRefusesOtherRun: a ledger belongs to one run
// configuration. Its per-(tile, rank) prefixes count positions in the
// substream one owner map gives a rank in blocks of one size, so a head
// handed a finished run's ledger under another owner map, another batch
// size or another process split must refuse by identity, where resuming at
// its prefixes would skip the wrong arcs of tiles whose counts still match.
// The same configuration is accepted: that is a resume. (Ledgers written
// under maps the engine no longer places by are TestConfigDigestPinned's.)
func TestLedgerIdentityRefusesOtherRun(t *testing.T) {
	const r = 4
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	oneProc := ClusterConfig{Procs: []transport.Proc{{Hi: r}}}
	run := func(cc ClusterConfig, path string, owner Owner, batch int) error {
		cc.LedgerPath = path
		_, err := RunCluster(ctx, cc, Config{Plan: plan, Owner: owner, Sink: &CountSink{}, BatchSize: batch})
		return err
	}
	owners := map[string]Owner{
		"BlockOwner":    BlockOwner{NC: plan.NC},
		"OwnerBySource": OwnerBySource,
	}
	for was, x := range owners {
		path := t.TempDir() + "/ledger"
		if err := run(oneProc, path, x, 0); err != nil {
			t.Fatalf("%s: %v", was, err)
		}
		if err := run(oneProc, path, x, 0); err != nil {
			t.Fatalf("%s: the run's own ledger refused: %v", was, err)
		}
		for now, y := range owners {
			if now == was {
				continue
			}
			if err := run(oneProc, path, y, 0); !errors.Is(err, ledger.ErrIdentity) {
				t.Errorf("ledger written under %s, resumed under %s: got %v, want ledger.ErrIdentity", was, now, err)
			}
		}
		if err := run(oneProc, path, x, DefaultBatchSize/2); !errors.Is(err, ledger.ErrIdentity) {
			t.Errorf("%s, another batch size: got %v, want ledger.ErrIdentity", was, err)
		}
		// The head reads the ledger before it waits for anyone, so the second
		// process of the other split need not exist.
		split := ClusterConfig{Procs: transport.SplitRanks([]string{node.Addr(), "127.0.0.1:0"}, r), Node: node}
		if err := run(split, path, x, 0); !errors.Is(err, ledger.ErrIdentity) {
			t.Errorf("%s, two processes on a one-process ledger: got %v, want ledger.ErrIdentity", was, err)
		}
	}
}

// TestConfigDigestPinned pins the ledger identity's configuration digest
// for the owners of TestLedgerIdentityRefusesOtherRun and for no owner, at
// one process and the default batch: the bytes every ledger written so far
// holds. A refactor that moved them would make each of those ledgers refuse
// to resume. OwnerBySource's pin moves when its map does, on purpose — when
// store.BySource became additive, and again when the engine bound it to the
// innermost factor, whose 10 vertices here it now pads to 16: a ledger
// written under an earlier map counts positions in other substreams, and
// one carrying that map's digest must be refused.
func TestConfigDigestPinned(t *testing.T) {
	const r = 4
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	const bySource = 0x05c6de73b97afc16
	owners := []struct {
		name   string
		owner  Owner
		digest uint64
	}{
		{"nil", nil, 0x1ce5de7ccfcb638c},
		{"BlockOwner", BlockOwner{NC: plan.NC}, 0x83d53a3c6809ca76},
		{"OwnerBySource", OwnerBySource, bySource},
	}
	for _, o := range owners {
		h, err := newRankHost(ClusterConfig{Procs: []transport.Proc{{Hi: r}}}, Config{Plan: plan, Owner: o.owner, Sink: &CountSink{}})
		if err != nil {
			t.Fatal(err)
		}
		if got := h.configDigest(); got != o.digest {
			t.Errorf("%s: configDigest = %#016x, ledgers hold %#016x", o.name, got, o.digest)
		}
	}

	// Digests of maps the engine no longer places by: OwnerBySource's under
	// the Fibonacci hash of the whole source, under the additive map before
	// it was bound to the innermost factor, and the remainder of the hash
	// (the source hash before it kept the high bits, once a test owner).
	const fibonacci, unpadded, lowBits = 0x5fe0bae955fe3aac, 0x8db5c3dccb06a16d, 0xcc06d5dedf0dc3cd
	for _, c := range []struct {
		digest uint64
		want   error
	}{{fibonacci, ledger.ErrIdentity}, {unpadded, ledger.ErrIdentity}, {lowBits, ledger.ErrIdentity}, {bySource, nil}} {
		path := t.TempDir() + "/ledger"
		l, _, err := ledger.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(ledger.Record{Kind: ledger.KindIdentity, PlanHash: PlanHash(plan), Digest: c.digest, Procs: 1, Ranks: r}); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		cc := ClusterConfig{Procs: []transport.Proc{{Hi: r}}, LedgerPath: path}
		_, err = RunCluster(context.Background(), cc, Config{Plan: plan, Owner: OwnerBySource, Sink: &CountSink{}})
		if c.want == nil && err != nil || c.want != nil && !errors.Is(err, c.want) {
			t.Errorf("a ledger carrying digest %#016x, resumed under OwnerBySource: got %v, want %v", c.digest, err, c.want)
		}
	}
}

// TestClusterHeadResumesOldLedger: a ledger written while heads also
// journaled their checkpoint table — stored and commit records between
// the identity, gen and epoch ones, as raw frames, and no done: the head
// died mid-run — still resumes. The head opens generation 2 at the next
// epoch, skips the old kinds, and generates every arc exactly once: the
// stored records claimed prefixes at its own ranks, whose output died with
// the old head.
func TestClusterHeadResumesOldLedger(t *testing.T) {
	const r = 4
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	cc := ClusterConfig{Procs: []transport.Proc{{Hi: r}}, LedgerPath: t.TempDir() + "/ledger"}
	cfg := Config{Plan: plan, Owner: OwnerBySource, Sink: &CountSink{}}
	h, err := newRankHost(cc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	old := []byte("KRONLDG1")
	for _, body := range []string{
		fmt.Sprintf(`{"k":"identity","ph":%d,"cd":%d,"np":1,"nr":%d}`, PlanHash(plan), h.configDigest(), r),
		`{"k":"gen","g":1}`,
		`{"k":"epoch"}`,
		`{"k":"stored","t":0,"r":0,"n":3}`,
		`{"k":"stored","t":1,"r":1,"n":5}`,
		`{"k":"commit","t":1,"on":true}`,
		`{"k":"epoch","e":1}`,
	} {
		old = binary.LittleEndian.AppendUint32(old, uint32(len(body)))
		old = binary.LittleEndian.AppendUint32(old, crc32.Checksum([]byte(body), crc32.MakeTable(crc32.Castagnoli)))
		old = append(old, body...)
	}
	if err := os.WriteFile(cc.LedgerPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := RunCluster(context.Background(), cc, cfg)
	if err != nil {
		t.Fatalf("head on an old ledger: %v", err)
	}
	if st.HeadGeneration != 2 || st.LastEpoch != 2 {
		t.Fatalf("head generation %d, last epoch %d; want 2 and 2", st.HeadGeneration, st.LastEpoch)
	}
	var want int64
	for _, ts := range plan.Tiles {
		for _, tl := range ts {
			want += plan.Arcs(tl)
		}
	}
	if got := cfg.Sink.(*CountSink).Total(); got != want || st.EdgesGenerated != want {
		t.Fatalf("stored %d, generated %d arcs; want every one of the plan's %d once", got, st.EdgesGenerated, want)
	}
	lst, err := ledger.Replay(cc.LedgerPath)
	if err != nil || lst.Gen != 2 || !lst.Done || lst.DoneErr != "" {
		t.Fatalf("ledger after the resume: %+v, %v; want generation 2 and a clean done", lst, err)
	}
}

// TestClusterHeadRefusesBadReport: a report crosses the wire from another
// process, so the head checks it before indexing with it. A fake worker
// joins and answers the begin with a report that names a rank outside its
// range, a tile the plan does not have, or a blame past R. The head's own
// attempt succeeds, so only the bad report can fail the run, and it must —
// not panic, not retry — with an error naming the proc and the bad index.
func TestClusterHeadRefusesBadReport(t *testing.T) {
	const r = 4
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		rep  ctrlMsg
		want string
	}{
		{"storedRankPastR", ctrlMsg{Stored: map[int]map[int]int64{7: {0: 1}}}, "rank 7"},
		{"storedRankOfHead", ctrlMsg{Stored: map[int]map[int]int64{0: {0: 1}}}, "rank 0"},
		{"unknownTile", ctrlMsg{Stored: map[int]map[int]int64{2: {999: 1}}}, "tile 999"},
		{"genRankPastR", ctrlMsg{Gen: map[int]int64{7: 1}}, "rank 7"},
		{"blamePastR", ctrlMsg{RunErr: "boom", Recoverable: true, Blame: 99}, "rank 99"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plan))
			if err != nil {
				t.Fatal(err)
			}
			defer node.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			worker := make(chan error, 1)
			go func() {
				cc, err := tcp.DialControl(ctx, node.Addr(), 1, PlanHash(plan), 5*time.Second)
				if err != nil {
					worker <- err
					return
				}
				defer cc.Close()
				cc.StartHeartbeat(50*time.Millisecond, 0)
				var m ctrlMsg
				if err := cc.Send(ctrlMsg{Kind: ctrlJoin}); err != nil {
					worker <- err
					return
				}
				if err := cc.Recv(ctx, &m); err != nil || m.Kind != ctrlBegin {
					worker <- fmt.Errorf("fake worker: want a begin, got %q, %v", m.Kind, err)
					return
				}
				rep := c.rep
				rep.Kind, rep.Epoch = ctrlReport, m.Epoch
				worker <- cc.Send(rep)
				cc.Recv(ctx, &m) // until the head hangs up
			}()
			procs := transport.SplitRanks([]string{node.Addr(), "127.0.0.1:0"}, r)
			_, err = RunCluster(ctx, ClusterConfig{Procs: procs, Node: node},
				Config{Plan: plan, Sink: &CountSink{}, Recovery: Recovery{MaxRetries: 3}})
			if werr := <-worker; werr != nil {
				t.Fatal(werr)
			}
			if err == nil || !strings.Contains(err.Error(), "proc 1") || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("head returned %v, want an error naming proc 1 and %s", err, c.want)
			}
		})
	}
}

// TestClusterHeartbeatSilentWorker: a worker reports when its own share is
// done, so the head's wait for a report is bounded by the control link's
// liveness alone. A fake worker joins, takes its begin, and then neither
// pings nor reports. With no retry budget and a 0.5 s heartbeat deadline,
// the head must fail the run, naming proc 1, within twice the deadline of
// the begin.
func TestClusterHeartbeatSilentWorker(t *testing.T) {
	const r = 2
	const deadline = 500 * time.Millisecond
	plan, err := PlanChain1D(mustChain(killTestFactors()), r)
	if err != nil {
		t.Fatal(err)
	}
	node, err := tcp.NewNode("127.0.0.1:0", 0, PlanHash(plan))
	if err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	begun := make(chan time.Time, 1)
	go func() {
		cc, err := tcp.DialControl(ctx, node.Addr(), 1, PlanHash(plan), 5*time.Second)
		if err != nil {
			return
		}
		defer cc.Close()
		var m ctrlMsg
		if cc.Send(ctrlMsg{Kind: ctrlJoin}) != nil || cc.Recv(ctx, &m) != nil || m.Kind != ctrlBegin {
			return
		}
		begun <- time.Now()
		cc.Recv(ctx, &m) // silent until the head hangs up
	}()
	procs := transport.SplitRanks([]string{node.Addr(), "127.0.0.1:0"}, r)
	_, err = RunCluster(ctx, ClusterConfig{Procs: procs, Node: node, HeartbeatInterval: 50 * time.Millisecond, HeartbeatDeadline: deadline},
		Config{Plan: plan, Sink: &CountSink{}})
	ended := time.Now()
	var at time.Time
	select {
	case at = <-begun:
	default:
		t.Fatalf("the fake worker never took its begin; the head returned %v", err)
	}
	if err == nil || !strings.Contains(err.Error(), "proc 1") {
		t.Fatalf("head returned %v, want an error naming proc 1", err)
	}
	if d := ended.Sub(at); d > 2*deadline {
		t.Fatalf("head gave up on the silent worker %v after its begin, want within %v", d, 2*deadline)
	}
}

// TestClusterBlame: a two-process cluster (goroutines over loopback, as in
// TestClusterParity) whose worker's first rank crashes mid-expansion. The
// head's own attempt succeeds; the worker's report names the crashed rank,
// and the retry must be booked on it — not on rank 0 — with the store still
// holding exactly core.Chain.Arcs.
func TestClusterBlame(t *testing.T) {
	const nprocs, r = 2, 4
	ch := mustChain(killTestFactors())
	dir := t.TempDir()
	cfg, plan, err := killTestConfig(dir, r)
	if err != nil {
		t.Fatal(err)
	}
	nodes := make([]*tcp.Node, nprocs)
	addrs := make([]string, nprocs)
	for i := range nodes {
		n, err := tcp.NewNode("127.0.0.1:0", i, PlanHash(plan))
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		defer n.Close()
		nodes[i], addrs[i] = n, n.Addr()
	}
	procs := transport.SplitRanks(addrs, r)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	stats := make([]Stats, nprocs)
	errs := make([]error, nprocs)
	for p := 0; p < nprocs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			pcfg := cfg
			if p == 1 {
				pcfg.Faults = &FaultPlan{Crashes: []CrashSpec{{Rank: procs[1].Lo, Point: FaultMidExpansion, After: 64}}}
			}
			stats[p], errs[p] = RunCluster(ctx, ClusterConfig{Procs: procs, Self: p, Node: nodes[p]}, pcfg)
		}(p)
	}
	wg.Wait()
	for p, err := range errs {
		if err != nil {
			t.Fatalf("proc %d: %v", p, err)
		}
	}
	st := stats[0]
	blamed := procs[1].Lo
	if st.TotalRetries() != 1 || st.RetriesPerRank[blamed] != 1 {
		t.Fatalf("RetriesPerRank = %v, want the one retry on rank %d (the resetting process's first rank)", st.RetriesPerRank, blamed)
	}
	if st.RecoveredRuns != 1 {
		t.Fatalf("RecoveredRuns = %d, want 1", st.RecoveredRuns)
	}
	stored, err := store.Recover(dir, plan.NC)
	if err != nil {
		t.Fatal(err)
	}
	var got, want []graph.Edge
	if err := stored.Iter(func(u, v int64) bool { got = append(got, graph.Edge{U: u, V: v}); return true }); err != nil {
		t.Fatal(err)
	}
	ch.Arcs(func(u, v int64) bool { want = append(want, graph.Edge{U: u, V: v}); return true })
	assertSameOrder(t, "recovered cluster store", sortedArcs(got), sortedArcs(want))
}
