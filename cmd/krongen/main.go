// Command krongen is the paper's deliverable (a): it reads factor graphs
// from edge-list files and produces the nonstochastic Kronecker product on
// a simulated distributed cluster with 1D (Sec. III) or 2D (Rem. 1)
// partitioning — a serial run is -ranks 1. The product can be the
// two-factor C = A ⊗ B, a Kronecker power A^{⊗k}, or a heterogeneous
// factor chain A₁⊗A₂⊗…⊗Aₖ — all three run the same chain engine, with
// the tail factors folded lazily so no pairwise intermediate is ever
// materialized.
//
// Usage:
//
//	krongen -a A.txt -b B.txt [flags]          two-factor product A ⊗ B
//	krongen -a A.txt -power k [flags]          Kronecker power A^{⊗k}
//	krongen -chain A1.txt,A2.txt,... [flags]   factor chain A₁⊗A₂⊗…
//
//	flags: [-out C.txt] [-mode 1d|2d] [-ranks R] [-self-loops]
//	       [-binary] [-stats] [-store DIR]
//	       [-offset N] [-limit M] [-gomaxprocs N]
//	       [-cluster-peers H:P,H:P,... -cluster-self N [-retries K]
//	        [-ledger FILE] [-head-retries K] [-hb-interval D] [-hb-deadline D]
//	        [-dial-timeout D]]
//
// Before generating, krongen prints the closed-form expected |V| and |E|
// of the product to stderr, and refuses to start when either count
// overflows int64 — a plan built from a wrapped count is garbage.
//
// With -offset/-limit krongen generates a contiguous window of the
// product's deterministic arc stream — shard k of S is
// -offset k·(arcs/S) -limit arcs/S — without ever generating the skipped
// prefix (the start position is located arithmetically). Windowed output
// is headerless "u v" arc lines (or a windowed store with -store); the
// whole-graph -binary format is refused. Under -mode 1d the window is the
// same stretch of the canonical enumeration (core.Chain.ArcsFrom) for any
// -ranks; 2d windows are deterministic per (layout, ranks).
//
// With -store the product streams to a sharded on-disk store instead of
// an edge-list file, one shard per simulated rank and O(batch) memory per
// rank; an arc goes to the shard of the rank that owns its source
// (dist.OwnerBySource), so shard s of any -ranks S store of one chain
// holds the same arcs.
//
// With -cluster-peers the 1d/2d store generation runs as one process of a
// real multi-process cluster over TCP: every process is started with the
// same factor files, the same full peer list and its own -cluster-self
// index, hosts a contiguous share of the -ranks ranks, and streams its
// owned shards into the shared -store directory. Process 0 supervises
// (assigning work, collecting results, retrying up to -retries times
// after a peer process dies) and finalizes the store manifest.
//
// With -self-loops every factor gets full self loops first — the
// ⊗(A_d+I) construction required by the triangle (Cor. 1/2), distance
// (Thm. 3) and community (Thm. 6) ground-truth formulas.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("krongen: ")

	aPath := flag.String("a", "", "edge-list file for factor A")
	bPath := flag.String("b", "", "edge-list file for factor B")
	power := flag.Int("power", 0, "generate the Kronecker power A^{⊗k} instead of A ⊗ B (any mode)")
	chainSpec := flag.String("chain", "", "comma-separated edge-list files A1,A2,...: generate the factor chain A1⊗A2⊗… (instead of -a/-b)")
	outPath := flag.String("out", "", "output file for C (default: stdout)")
	mode := flag.String("mode", "1d", "partitioning: 1d (head arcs split across ranks) or 2d (a grid of head and first-tail parts)")
	ranks := flag.Int("ranks", 4, "simulated ranks (1 is a serial run); a store has one shard per rank")
	selfLoops := flag.Bool("self-loops", false, "generate the full-self-loop product ⊗(A_d+I)")
	binary := flag.Bool("binary", false, "write the binary edge-list format")
	stats := flag.Bool("stats", false, "print generation statistics to stderr")
	storeDir := flag.String("store", "", "stream C to a sharded on-disk store at this directory instead of an edge-list file")
	offset := flag.Int64("offset", 0, "start the arc stream this many arcs into the product (the skipped prefix is never generated)")
	limit := flag.Int64("limit", -1, "stop after this many arcs from -offset (-1 = through the end)")
	clusterPeers := flag.String("cluster-peers", "", "comma-separated host:port list of every cluster process, in process order (requires -store)")
	clusterSelf := flag.Int("cluster-self", 0, "this process's index into -cluster-peers")
	retries := flag.Int("retries", 3, "cluster mode: attempts to retry after a recoverable peer failure")
	ledgerPath := flag.String("ledger", "", "cluster mode: durable run-ledger file for process 0; a respawned head replays it and resumes instead of restarting")
	headRetries := flag.Int("head-retries", 5, "cluster mode: how many times a worker re-dials a lost head before giving up")
	hbInterval := flag.Duration("hb-interval", 0, "cluster mode: control-link heartbeat interval (≤ 0 = 2s default; heartbeats are always on)")
	hbDeadline := flag.Duration("hb-deadline", 0, "cluster mode: peer silence deadline before a partition verdict (0 = 5× interval)")
	dialTimeout := flag.Duration("dial-timeout", 0, "cluster mode: dial and handshake timeout (0 = 10s default); raise on slow networks")
	dumpStore := flag.String("dump-store", "", "load an existing store at this directory and write it as an edge list (to -out or stdout); no generation")
	dumpArcs := flag.Bool("dump-arcs", false, "with -dump-store: write every stored arc as a headerless \"u v\" line instead of the canonical undirected edge list (windowed stores are not arc-symmetric)")
	gomaxprocs := flag.Int("gomaxprocs", 0, "cap the OS threads running Go code (0 = runtime default); makes core-count sweeps scriptable without env juggling")
	flag.Parse()

	if *gomaxprocs < 0 {
		log.Fatalf("-gomaxprocs must be ≥ 0, got %d", *gomaxprocs)
	}
	if *gomaxprocs > 0 {
		runtime.GOMAXPROCS(*gomaxprocs)
	}

	if *dumpStore != "" {
		st, err := store.Open(*dumpStore)
		if err != nil {
			log.Fatalf("opening store: %v", err)
		}
		if *dumpArcs {
			out := openOut(*outPath)
			bw := bufio.NewWriterSize(out, 1<<16)
			var werr error
			err := st.Iter(func(u, v int64) bool {
				_, werr = fmt.Fprintf(bw, "%d %d\n", u, v)
				return werr == nil
			})
			if err == nil {
				err = werr
			}
			if err == nil {
				err = bw.Flush()
			}
			if err != nil {
				log.Fatalf("dumping arcs: %v", err)
			}
			return
		}
		g, err := st.LoadGraph()
		if err != nil {
			log.Fatalf("loading store: %v", err)
		}
		if err := g.WriteEdgeList(openOut(*outPath)); err != nil {
			log.Fatalf("writing edge list: %v", err)
		}
		return
	}

	// --- Up-front flag validation: every inconsistency is reported before
	// any file is read or any expander starts. ---
	if *mode != "1d" && *mode != "2d" {
		log.Fatalf("unknown mode %q (want 1d or 2d)", *mode)
	}
	twoD := *mode == "2d"
	if *ranks < 1 {
		log.Fatalf("-ranks must be ≥ 1, got %d", *ranks)
	}
	if *chainSpec != "" {
		if *aPath != "" || *bPath != "" || *power != 0 {
			log.Fatal("-chain replaces -a/-b/-power; drop them")
		}
	} else {
		if *aPath == "" {
			flag.Usage()
			os.Exit(2)
		}
		if *power != 0 {
			if *power < 2 {
				log.Fatalf("-power must be ≥ 2, got %d", *power)
			}
			if *bPath != "" {
				log.Fatal("-power takes only -a; drop -b")
			}
		} else if *bPath == "" {
			flag.Usage()
			os.Exit(2)
		}
	}
	if *clusterPeers != "" && *storeDir == "" {
		log.Fatal("-cluster-peers requires -store")
	}
	if *offset < 0 {
		log.Fatalf("-offset must be ≥ 0, got %d", *offset)
	}
	if *limit < -1 {
		log.Fatalf("-limit must be ≥ 0 (or -1 for no limit), got %d", *limit)
	}
	windowed := *offset != 0 || *limit >= 0
	if windowed && *binary {
		log.Fatal("-offset/-limit write headerless arc windows; the whole-graph -binary format cannot carry one")
	}

	// --- Build the factor chain; every generation path below consumes it. ---
	var ch *core.Chain
	var err error
	switch {
	case *chainSpec != "":
		paths := strings.Split(*chainSpec, ",")
		factors := make([]*graph.Graph, len(paths))
		for i, p := range paths {
			p = strings.TrimSpace(p)
			if p == "" {
				log.Fatalf("-chain has an empty entry in %q", *chainSpec)
			}
			factors[i], err = graph.LoadUndirected(p)
			if err != nil {
				log.Fatalf("loading chain factor %d: %v", i+1, err)
			}
		}
		ch, err = core.NewChain(factors...)
	case *power >= 2:
		var a *graph.Graph
		a, err = graph.LoadUndirected(*aPath)
		if err != nil {
			log.Fatalf("loading A: %v", err)
		}
		ch, err = core.PowerChain(a, *power)
	default:
		var a, b *graph.Graph
		a, err = graph.LoadUndirected(*aPath)
		if err != nil {
			log.Fatalf("loading A: %v", err)
		}
		b, err = graph.LoadUndirected(*bPath)
		if err != nil {
			log.Fatalf("loading B: %v", err)
		}
		ch, err = core.NewChain(a, b)
	}
	if err != nil {
		log.Fatalf("building factor chain: %v", err)
	}
	if *selfLoops {
		ch = ch.WithFullSelfLoops()
	}

	// --- Closed-form expected size, printed before generating; an
	// overflowing count is a refusal, not a wrapped number. ---
	edges, arcs, err := ch.NumEdges()
	if err != nil {
		log.Fatalf("refusing to generate: %v", err)
	}
	fmt.Fprintf(os.Stderr, "expecting |V| = %d, |E| = %d (%d arcs) from %d factor(s)\n",
		ch.NumVertices(), edges, arcs, ch.K())
	fmt.Fprintf(os.Stderr, "running with GOMAXPROCS=%d on %d CPU(s)\n",
		runtime.GOMAXPROCS(0), runtime.NumCPU())
	if *offset > arcs {
		log.Fatalf("-offset %d is beyond the product's %d arcs", *offset, arcs)
	}

	if *clusterPeers != "" {
		runCluster(ch, twoD, *storeDir, *clusterPeers, *clusterSelf, *ranks, *retries, *stats, *offset, *limit,
			clusterOpts{ledger: *ledgerPath, headRetries: *headRetries,
				hbInterval: *hbInterval, hbDeadline: *hbDeadline, dialTimeout: *dialTimeout})
		return
	}

	if *storeDir != "" {
		// Generate-store: each rank streams the edges it owns to its own
		// shard, O(batch) memory per rank.
		start := time.Now()
		st, genStats, err := dist.GenerateChainToStoreFrom(ch, *ranks, *storeDir, twoD, *offset, *limit)
		if err != nil {
			log.Fatalf("generating to store: %v", err)
		}
		if *stats {
			elapsed := time.Since(start)
			fmt.Fprintf(os.Stderr, "streamed %d arcs to %s (%d shards) in %s\n",
				st.TotalEdges(), *storeDir, st.Shards(), rate(st.TotalEdges(), elapsed))
			fmt.Fprintf(os.Stderr, "ranks=%d %s, max stored/rank=%d\n", *ranks, placed(genStats), genStats.MaxStored())
		}
		return
	}

	if windowed {
		// A window of the arc stream is not a whole graph: write headerless
		// "u v" lines from the engine's seeked stream.
		out := openOut(*outPath)
		bw := bufio.NewWriter(out)
		start := time.Now()
		var count int64
		_, err := dist.StreamChainFrom(context.Background(), ch, *ranks, twoD, 0, *offset, *limit, dist.Recovery{},
			func(batch []graph.Edge) error {
				for _, e := range batch {
					if _, err := fmt.Fprintf(bw, "%d %d\n", e.U, e.V); err != nil {
						return err
					}
				}
				count += int64(len(batch))
				return nil
			})
		if err != nil {
			log.Fatalf("streaming window: %v", err)
		}
		if err := bw.Flush(); err != nil {
			log.Fatalf("writing window: %v", err)
		}
		if out != os.Stdout {
			if err := out.Close(); err != nil {
				log.Fatalf("closing output: %v", err)
			}
		}
		if *stats {
			elapsed := time.Since(start)
			fmt.Fprintf(os.Stderr, "wrote %d arcs from offset %d in %s\n",
				count, *offset, rate(count, elapsed))
		}
		return
	}

	start := time.Now()
	res, err := dist.GenerateChain(ch, *ranks, nil, twoD)
	if err != nil {
		log.Fatalf("generating product: %v", err)
	}
	c, err := res.Collect()
	if err != nil {
		log.Fatalf("generating product: %v", err)
	}
	elapsed := time.Since(start)

	out := openOut(*outPath)
	if *binary {
		err = c.WriteBinary(out)
	} else {
		err = c.WriteEdgeList(out)
	}
	if err != nil {
		log.Fatalf("writing C: %v", err)
	}
	if out != os.Stdout {
		if err := out.Close(); err != nil {
			log.Fatalf("closing output: %v", err)
		}
	}

	if *stats {
		for i, g := range ch.Factors() {
			fmt.Fprintf(os.Stderr, "A%d: %v\n", i+1, g)
		}
		fmt.Fprintf(os.Stderr, "C: %v\n", c)
		fmt.Fprintf(os.Stderr, "generated in %s\n", rate(c.NumArcs(), elapsed))
		fmt.Fprintf(os.Stderr, "ranks=%d %s\n", *ranks, placed(res.Stats))
	}
}

// killSink SIGKILLs the process inside its Nth block, whichever of its
// ranks gets there (KRONLAB_TCP_KILL_FRAMES): a real death mid-generation,
// whatever the sink had buffered lost with it. Its ranks take packed blocks
// (StorePackedBlock), so a run armed with it stores through the store
// sink's own packed path, as an unarmed run does.
type killSink struct {
	dist.Sink
	left atomic.Int64
}

func (k *killSink) Rank(rk *dist.Rank) (dist.RankSink, error) {
	rs, err := k.Sink.Rank(rk)
	if err != nil {
		return nil, err
	}
	return &killRankSink{RankSink: rs, k: k}, nil
}

type killRankSink struct {
	dist.RankSink
	k *killSink
}

func (t *killRankSink) StorePackedBlock(tile int, arcs []uint64, u0, v0 int64) (int64, error) {
	if t.k.left.Add(-1) == 0 {
		syscall.Kill(os.Getpid(), syscall.SIGKILL)
	}
	return t.RankSink.(dist.PackedBlockStorer).StorePackedBlock(tile, arcs, u0, v0)
}

// placed reports what storing by owner cost a run. Every krongen run stores
// by source (OwnerBySource), so each rank generated the edges it stores;
// what it paid for that is its picks of owned rows, one owner call each,
// and the arcs copied into the innermost factor's classes, printed as
// shares of the edges generated — a replay generates nothing it stored,
// so that is the edges stored — and the busiest rank's share, which is the
// run's wall: max stored over the ideal 1/R (of what this head generation's
// attempts stored: a head resumed from a ledger counts only what was stored
// since).
func placed(st dist.Stats) string {
	share := func(n int64) float64 { return 100 * float64(n) / float64(max(st.EdgesGenerated, 1)) }
	var stored int64
	for _, n := range st.PerRankStored {
		stored += n
	}
	return fmt.Sprintf("owner-side filter: %d picks (%.2f%% of edges generated), %d arcs compacted (%.2f%%); load max/ideal = %.2f (rank %d)",
		st.OwnerRowsTested, share(st.OwnerRowsTested), st.ArcsCompacted, share(st.ArcsCompacted),
		float64(st.MaxStored())*float64(len(st.PerRankStored))/float64(max(stored, 1)), slices.Index(st.PerRankStored, st.MaxStored()))
}

// rate is the tail of every -stats timing line: the time, the rate, and
// the expansion kernel that produced it (core.Kernel) — without which two
// hosts' edges/s do not compare.
func rate(arcs int64, elapsed time.Duration) string {
	return fmt.Sprintf("%v (%.0f edges/s, %s kernel)", elapsed, float64(arcs)/elapsed.Seconds(), core.Kernel())
}

// openOut opens the -out file, or stdout when unset.
func openOut(path string) *os.File {
	if path == "" {
		return os.Stdout
	}
	f, err := os.Create(path)
	if err != nil {
		log.Fatalf("creating output: %v", err)
	}
	return f
}

// clusterOpts bundles the robustness knobs of cluster mode: the head's
// durable run ledger, the workers' head re-dial budget, heartbeat
// tuning, and the dial/handshake timeout.
type clusterOpts struct {
	ledger      string
	headRetries int
	hbInterval  time.Duration
	hbDeadline  time.Duration
	dialTimeout time.Duration
}

// runCluster runs this process's share of a multi-process TCP cluster
// generation of a factor chain. Every peer process runs the same command
// line except for -cluster-self, derives the identical chain plan from
// the shared factor files, and the plan-hash handshake refuses any peer
// whose plan disagrees. Process 0 finalizes the store and prints the
// -stats summary; workers exit silently on success.
//
// The env var KRONLAB_TCP_KILL_FRAMES (> 0) arms a self-SIGKILL — the chaos
// hook scripts/cluster_local.sh uses to murder a process mid-run and
// exercise respawn recovery against a real process tree. It counts blocks
// handed to this process's store sink (killSink): the process dies inside
// the Nth. (The name is the variable's old one, from when it counted
// outbound batch frames.)
func runCluster(ch *core.Chain, twoD bool, dir, peers string, self, ranks, retries int, stats bool, offset, limit int64, opts clusterOpts) {
	addrs := strings.Split(peers, ",")
	for i, s := range addrs {
		addrs[i] = strings.TrimSpace(s)
	}
	if self < 0 || self >= len(addrs) {
		log.Fatalf("-cluster-self %d out of range for %d peers", self, len(addrs))
	}
	if ranks < len(addrs) {
		log.Fatalf("-ranks %d is fewer than the %d cluster processes", ranks, len(addrs))
	}

	plan, err := dist.PlanChain1D(ch, ranks)
	if twoD {
		plan, err = dist.PlanChain2D(ch, ranks)
	}
	if err != nil {
		log.Fatalf("planning: %v", err)
	}
	// The handshake hash covers the -offset/-limit window: every process
	// must be dumping the same slice, or the shards are garbage.
	if offset != 0 || limit >= 0 {
		plan, err = plan.Slice(offset, limit)
		if err != nil {
			log.Fatalf("slicing plan: %v", err)
		}
	}
	// Only the head listens: workers dial it and nothing dials them.
	var node *tcp.Node
	if self == 0 {
		if node, err = tcp.NewNode(addrs[self], self, dist.PlanHash(plan)); err != nil {
			log.Fatalf("listening on %s: %v", addrs[self], err)
		}
		defer node.Close()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var sink dist.Sink = dist.NewStoreSink(dir, ranks)
	if n, _ := strconv.ParseInt(os.Getenv("KRONLAB_TCP_KILL_FRAMES"), 10, 64); n > 0 {
		dying := &killSink{Sink: sink}
		dying.left.Store(n)
		sink = dying
	}

	start := time.Now()
	genStats, err := dist.RunCluster(ctx,
		dist.ClusterConfig{
			Procs:             transport.SplitRanks(addrs, ranks),
			Self:              self,
			Node:              node,
			LedgerPath:        opts.ledger,
			HeadRetries:       opts.headRetries,
			HeartbeatInterval: opts.hbInterval,
			HeartbeatDeadline: opts.hbDeadline,
			DialTimeout:       opts.dialTimeout,
		},
		dist.Config{Plan: plan, Owner: dist.OwnerBySource, Sink: sink,
			Recovery: dist.Recovery{MaxRetries: retries, Backoff: 250 * time.Millisecond}})
	if err != nil {
		log.Fatalf("cluster generation (proc %d): %v", self, err)
	}
	if self != 0 {
		return // worker: the head owns the manifest and the summary
	}
	// The head finalizes the manifest from the shard files themselves once
	// every worker has flushed: exact even when a respawned worker
	// truncated and rewrote its shards mid-run.
	st, err := store.Recover(dir, plan.NC)
	if err != nil {
		log.Fatalf("finalizing cluster store: %v", err)
	}
	if stats {
		elapsed := time.Since(start)
		fmt.Fprintf(os.Stderr, "streamed %d arcs to %s (%d shards) in %s\n",
			st.TotalEdges(), dir, st.Shards(), rate(st.TotalEdges(), elapsed))
		fmt.Fprintf(os.Stderr, "procs=%d ranks=%d %s, max stored/rank=%d, recovered runs=%d, head generation=%d\n",
			len(addrs), ranks, placed(genStats), genStats.MaxStored(), genStats.RecoveredRuns, genStats.HeadGeneration)
	}
}
