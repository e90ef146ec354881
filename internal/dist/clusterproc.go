package dist

// The attempt loop and cluster mode: the Plan→Expand→Place→Sink engine
// spread across N OS processes. Every process deterministically
// reconstructs the same Plan from the factor files, hosts a contiguous rank
// range from the static peer list, and runs the same rankHost.attempt on a
// cluster of its own ranks. Processes share nothing but the control
// connection each worker holds to the head: no arc crosses a process, and
// each rank checks its own balance.
//
// Process 0 (the head) doubles as the run supervisor: it owns the
// tile-checkpoint table, sends each attempt's uncommitted tiles (on their
// planned ranks) over persistent control connections, and checks and folds
// per-attempt reports. Its loop is the only one: an in-process Run is one
// process with no workers. Each process resumes its own ranks at what its own
// sinks stored; the head's table only decides which tiles are committed.
// Recovery extends that posture from a killed goroutine to a killed *process*:
//
//   - A worker that dies (SIGKILL, OOM, a yanked cable) surfaces at the
//     head as a broken or silent control connection. The other processes
//     never see it: they finish their attempts, report, and what they
//     stored commits.
//   - The dead worker's durable output is gone with it — a respawned
//     process's ShardWriter truncates its shard files on open — so the
//     head zeroes the dead proc's ranks in every tile's stored counts
//     and recomputes tile commitment non-stickily: a tile whose stored
//     edges lived on the dead proc un-commits and replays. The replay
//     covers only the tiles with arcs on the dead proc's ranks.
//   - Survivors keep their sinks open across attempts and resume every
//     replayed tile at their own count of what they stored of its
//     substream, exactly as in-process recovery does, so delivery stays
//     exactly-once.
//   - The respawned worker re-dials the head's control port and is handed
//     the next attempt's assignment.
//
// The head keeps no journal, and a respawned head is the same command run
// again. Workers whose control connection breaks do not tear down
// terminally: they park and re-dial with jittered exponential backoff under
// the ClusterConfig.HeadRetries budget, keeping their sinks open, and
// announce their per-(rank, tile) stored counts, absolute, in a join
// message on every (re)connect. Those joins fill the respawned head's
// table — the worker's own durable state is ground truth for its ranks,
// and the head's own ranks start empty (its ShardWriters truncate on open).
// Every join also carries the worker's configuration digest (process
// split, owner map, batch size; configDigest), and the head refuses a
// worker whose digest is not its own, first start and respawn alike.
// Application-level heartbeats, always on, turn a black-holed control link
// into a loud failure within a configured deadline instead of a hang.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"slices"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/store"
)

// ClusterConfig places one process in a static cluster.
type ClusterConfig struct {
	// Procs is the cluster layout — every process must derive the same
	// list (same addresses, same rank split). See transport.SplitRanks.
	Procs []transport.Proc
	// Self is this process's index in Procs; index 0 is the head.
	Self int
	// Node is the head's persistent listening endpoint (NewNode with its
	// address and the plan hash), where workers' control connections
	// arrive. The head of more than one process needs one; workers and a
	// lone process ignore it.
	Node *tcp.Node
	// DialTimeout bounds each control dial a worker makes to the head,
	// handshake included; ≤ 0 means 10s.
	DialTimeout time.Duration
	// HeadRetries is how many times a worker re-dials a broken head
	// control link (with jittered exponential backoff) before giving up.
	// 0 restores the old posture — the head's death fails the worker on
	// the first break.
	HeadRetries int
	// HeartbeatInterval is the application heartbeat period on every
	// control link; ≤ 0 means 2s. Heartbeats are always on: a silent link
	// is what ends the head's wait for a report that is not coming.
	HeartbeatInterval time.Duration
	// HeartbeatDeadline is how long a link may stay silent before its
	// peer is declared dead; ≤ 0 means 5× the interval.
	HeartbeatDeadline time.Duration
}

// reportTimeout bounds how long the head waits for a worker's join or bye
// before declaring the worker dead. It does not bound a report: a worker
// reports when its own share is done, which can be long after the head's,
// so the head waits for one on its context and on the control link's
// liveness (EOF, or the heartbeat deadline) alone.
const reportTimeout = 30 * time.Second

func (cc ClusterConfig) heartbeatInterval() time.Duration {
	if cc.HeartbeatInterval > 0 {
		return cc.HeartbeatInterval
	}
	return 2 * time.Second
}

// PlanHash fingerprints a plan for the cluster handshake: rank count,
// product size, the chain's factor dimensions, and every tile's
// identity, head-arc window and tail-factor shapes. Two processes that
// derive different plans from what should be the same inputs refuse each
// other's connections instead of silently mixing checkpoint accounting.
// Chain depth is part of the fingerprint, so a k=3 head never handshakes
// with a k=2 worker even when both products have the same vertex count.
func PlanHash(p Plan) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	w(int64(p.R))
	w(p.NC)
	w(int64(len(p.Dims)))
	for _, d := range p.Dims {
		w(d)
	}
	for _, tiles := range p.Tiles {
		w(int64(len(tiles)))
		for _, t := range tiles {
			w(int64(t.ID))
			// The stream window is part of the tile's identity: two procs
			// slicing the same plan at different offsets must refuse each
			// other (their checkpoint accounting would disagree).
			w(t.Skip)
			w(t.Take)
			w(int64(len(t.AArcs)))
			for _, e := range t.AArcs {
				w(e.U)
				w(e.V)
			}
			// A tile's range of the first tail factor hashes as the shape
			// of a graph of its arcs, (vertex count, Hi − Lo), so a plan
			// hashes as one that built its parts as graphs and peers of
			// either kind still handshake (TestPlanHashPinned).
			w(int64(len(p.Tail)))
			for d, g := range p.Tail {
				w(g.NumVertices())
				if d == 0 {
					w(int64(t.Hi - t.Lo))
				} else {
					w(g.NumArcs())
				}
			}
		}
	}
	return h.Sum64()
}

// Control protocol: JSON messages over the persistent worker→head
// connections. One struct, discriminated by Kind, keeps the codec dumb.
const (
	ctrlJoin   = "join"   // worker → head: first message on every (re)connect
	ctrlBegin  = "begin"  // head → worker: run one attempt
	ctrlReport = "report" // worker → head: attempt outcome
	ctrlDone   = "done"   // head → worker: run over, finalize sinks
	ctrlBye    = "bye"    // worker → head: sinks flushed and closed
)

type ctrlMsg struct {
	Kind string `json:"kind"`

	// join: the sender's configDigest, which must be the head's.
	Config uint64 `json:"config,omitempty"`

	// begin: the attempt's tile assignment (tile IDs per rank; tiles are
	// resolved against the locally reconstructed plan).
	Tiles map[int][]int `json:"tiles,omitempty"`

	// done: the run's final error, empty on success.
	Err string `json:"err,omitempty"`

	// join and report: the sender's per-(rank, tile) stored counts,
	// absolute (rankHost.storedCounts), which the head takes as ground
	// truth for the sender's ranks — a fresh respawn's empty join zeroes
	// them, exactly what its truncated shards demand. report: per-rank
	// engine counters, traffic totals, and the attempt's error with its
	// recovery classification.
	Stored      map[int]map[int]int64 `json:"stored,omitempty"`
	Gen         map[int]int64         `json:"gen,omitempty"`
	StoredN     map[int]int64         `json:"stored_n,omitempty"`
	Traffic     trafficStats          `json:"traffic,omitempty"`
	RunErr      string                `json:"run_err,omitempty"`
	Recoverable bool                  `json:"recoverable,omitempty"`
	// Blame is the rank a failed attempt's fault names, resolved by the
	// process that ran it; -1 when the fault names none.
	Blame int `json:"blame,omitempty"`

	// err is RunErr as the error value it was, for the process that ran
	// the attempt (classification and blame need the chain; it does not
	// cross the wire).
	err error
}

// fail records a non-nil attempt error in the report.
func (m *ctrlMsg) fail(err error) {
	if err != nil {
		m.err = err
		m.RunErr = err.Error()
		m.Blame, m.Recoverable = classify(err)
	}
}

// trafficStats is what an attempt's ranks generated and what placing cost
// them, as a report carries it: Stats.EdgesGenerated, OwnerRowsTested (one
// count per pick) and ArcsCompacted.
type trafficStats struct {
	Generated  int64 `json:"generated,omitempty"`
	RowsTested int64 `json:"rows_tested,omitempty"`
	Compacted  int64 `json:"compacted,omitempty"`
}

// newRunStats returns the aggregate a run folds its attempt reports into.
func newRunStats(r int) Stats {
	return Stats{
		PerRankGenerated: make([]int64, r),
		PerRankStored:    make([]int64, r),
		RetriesPerRank:   make([]int64, r),
	}
}

// checkReport refuses a worker's report before anything indexes with it: a
// rank outside the sender's [Lo, Hi) or a blame outside [-1, R) would crash
// the head's stats fold, and a tile the plan does not have means a broken
// sender or a stranger (checkpoints.set ignores both in joins).
func (h *rankHost) checkReport(cp *checkpoints, peer int, rep *ctrlMsg) error {
	pr, ranks := h.cc.Procs[peer], []int{}
	for rk, m := range rep.Stored {
		ranks = append(ranks, rk)
		for id := range m {
			if cp.byID[id] == nil {
				return fmt.Errorf("dist: proc %d reported tile %d, which the plan does not have", peer, id)
			}
		}
	}
	for _, m := range []map[int]int64{rep.Gen, rep.StoredN} {
		for rk := range m {
			ranks = append(ranks, rk)
		}
	}
	for _, rk := range ranks {
		if rk < pr.Lo || rk >= pr.Hi {
			return fmt.Errorf("dist: proc %d reported rank %d, outside its ranks [%d,%d)", peer, rk, pr.Lo, pr.Hi)
		}
	}
	if rep.Blame < -1 || rep.Blame >= h.cfg.Plan.R {
		return fmt.Errorf("dist: proc %d blamed rank %d, outside [0,%d)", peer, rep.Blame, h.cfg.Plan.R)
	}
	return nil
}

// foldReport merges one proc's attempt report into the aggregate stats.
func foldReport(agg *Stats, rep *ctrlMsg) {
	agg.EdgesGenerated += rep.Traffic.Generated
	agg.OwnerRowsTested += rep.Traffic.RowsTested
	agg.ArcsCompacted += rep.Traffic.Compacted
	for rk, n := range rep.Gen {
		agg.PerRankGenerated[rk] += n
	}
	for rk, n := range rep.StoredN {
		agg.PerRankStored[rk] += n
	}
}

// RunCluster executes one engine run across the static cluster in cc:
// the head (proc 0) supervises, workers execute. Every process must call
// it with an identical Plan (PlanHash enforces this at every connection)
// and a Sink able to host its local rank range. Config.Recovery arms
// process-level recovery exactly as it arms rank-level recovery
// in-process, and Config.Faults arms the same way in both: each process's
// ranks obey the crash specs that name them.
//
// Config.Owner must be nil, OwnerBySource or a BlockOwner with blocks; any
// other owner — a typed-nil OwnerFunc, any OwnerFunc but OwnerBySource and
// any other type, whatever its BindSource answers, included — is refused by
// name before a sink is opened (sourceForm).
//
// On the head the returned Stats aggregate the whole cluster across all
// attempts; workers return their local share. The error (or nil) is
// consistent across processes: workers learn the run's outcome from the
// head's done message.
func RunCluster(ctx context.Context, cc ClusterConfig, cfg Config) (Stats, error) {
	if cc.Self < 0 || cc.Self >= len(cc.Procs) {
		return Stats{}, fmt.Errorf("dist: cluster self index %d out of range [0,%d)", cc.Self, len(cc.Procs))
	}
	if err := tileRanks(cc.Procs, cfg.Plan.R); err != nil {
		return Stats{}, err
	}
	if cc.Node == nil && cc.Self == 0 && len(cc.Procs) > 1 {
		return Stats{}, fmt.Errorf("dist: the head of a cluster of %d processes needs a Node", len(cc.Procs))
	}
	h, err := newRankHost(cc, cfg)
	if err != nil {
		return Stats{}, err
	}
	if cc.Self == 0 {
		return runClusterHead(ctx, h)
	}
	return runClusterWorker(ctx, h)
}

// tileRanks refuses a process list that does not host ranks [0, r) in
// order, each process a non-empty range: a gap would leave ranks no process
// runs (their tiles silently missing from a run that succeeds), an overlap
// would run ranks twice.
func tileRanks(procs []transport.Proc, r int) error {
	next := 0
	for i, p := range procs {
		if p.Lo != next || p.Hi <= p.Lo {
			return fmt.Errorf("dist: cluster procs do not tile ranks [0,%d) in order: proc %d hosts [%d,%d), want a non-empty range from %d", r, i, p.Lo, p.Hi, next)
		}
		next = p.Hi
	}
	if next != r {
		return fmt.Errorf("dist: cluster procs do not tile ranks [0,%d) in order: they host [0,%d)", r, next)
	}
	return nil
}

// runClusterWorker is the non-head process loop: obey begin/done from
// the head until the run concludes. A broken head control link is no
// longer terminal: the worker parks with its sinks open and re-dials
// under the HeadRetries budget — jittered exponential backoff — opening
// each (re)connection with a join message that announces its stored
// counts. A head that never comes back exhausts the budget and
// fails loudly; a worker must never hang on a silent cluster.
func runClusterWorker(ctx context.Context, h *rankHost) (Stats, error) {
	rng := rand.New(rand.NewSource(int64(h.planHash) ^ int64(h.cc.Self)<<32 ^ time.Now().UnixNano()))
	digest := h.configDigest()
	dial := func() (*tcp.CtrlConn, error) {
		cc, err := tcp.DialControl(ctx, h.cc.Procs[0].Addr, h.cc.Self, h.planHash, h.cc.DialTimeout)
		if err != nil {
			return nil, err
		}
		cc.StartHeartbeat(h.cc.heartbeatInterval(), h.cc.HeartbeatDeadline)
		if err := cc.Send(ctrlMsg{Kind: ctrlJoin, Config: digest, Stored: h.storedCounts()}); err != nil {
			cc.Close()
			return nil, err
		}
		return cc, nil
	}
	cc, err := dial()
	if err != nil {
		return Stats{}, fmt.Errorf("dist: worker %d joining head: %w", h.cc.Self, err)
	}
	defer func() { cc.Close() }()
	agg := newRunStats(h.cfg.Plan.R)
	redials := 0
	// park re-dials the head after a control-link break, consuming the
	// budget; on success the loop continues with the fresh connection
	// (whose join already told a respawned head where we stand).
	park := func(cause error) error {
		cc.Close()
		for {
			if ctx.Err() != nil {
				return context.Cause(ctx)
			}
			if redials >= h.cc.HeadRetries {
				return cause
			}
			redials++
			// Jittered: the backoff is scaled by a uniform factor in
			// [0.5, 1.5) so a whole cluster of workers re-dialing a
			// respawned head doesn't arrive as a thundering herd.
			base := h.cfg.Backoff
			if base <= 0 {
				base = 50 * time.Millisecond
			}
			d := time.Duration(float64(backoff(base, redials)) * (0.5 + rng.Float64()))
			if err := sleepCtx(ctx, d); err != nil {
				return err
			}
			ncc, err := dial()
			if err != nil {
				cause = err
				continue
			}
			cc = ncc
			return nil
		}
	}
	for {
		var m ctrlMsg
		if err := cc.Recv(ctx, &m); err != nil {
			if perr := park(err); perr != nil {
				_ = h.finalize()
				return agg, fmt.Errorf("dist: worker %d lost head control link: %w", h.cc.Self, perr)
			}
			continue
		}
		switch m.Kind {
		case ctrlBegin:
			rep := h.attempt(ctx, m.Tiles)
			foldReport(&agg, &rep)
			if err := cc.Send(rep); err != nil {
				// The head died before taking the report. The stored edges
				// are safe on disk and counted by our sinks; re-dial and let
				// a respawned head assign from our join.
				if perr := park(err); perr != nil {
					h.finalize()
					return agg, fmt.Errorf("dist: worker %d reporting to head: %w", h.cc.Self, perr)
				}
			}
		case ctrlDone:
			ferr := h.finalize()
			_ = cc.Send(ctrlMsg{Kind: ctrlBye})
			if m.Err != "" {
				return agg, errors.New(m.Err)
			}
			return agg, ferr
		default:
			h.finalize()
			return agg, fmt.Errorf("dist: worker %d: unexpected control message %q", h.cc.Self, m.Kind)
		}
	}
}

// configDigest fingerprints the run configuration beyond the plan —
// process split, owner map, batch size — for the join check: every process
// counts its stored prefixes in the substream its owner map sends a rank,
// so a worker under another configuration would store arcs the head's
// table counts for other ranks, and tiles would commit with arcs missing.
// The owner is fingerprinted by what it does, its answers on 64 probe edges
// spread over the product's vertices (high and low bits both vary): the
// same name at another commit with another map is another configuration.
// An owner is probed through its source form for the plan, the one the
// engine places with (OwnerBySource's is bound to the innermost factor's
// vertex count).
func (h *rankHost) configDigest() uint64 {
	d := fnv.New64a()
	var b [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.Write(b[:])
	}
	w(int64(len(h.cc.Procs)))
	for _, p := range h.cc.Procs {
		w(int64(p.Lo))
		w(int64(p.Hi))
	}
	if h.bySource != nil {
		w(1)
		nc := max(h.cfg.Plan.NC, 1)
		for j := int64(0); j < 64; j++ {
			w(int64(h.bySource((j*(nc/64) + j) % nc)))
		}
	} else {
		w(0)
	}
	w(int64(h.cfg.batchSize()))
	return d.Sum64()
}

// runClusterHead is the supervising process and the only attempt loop: it
// owns the checkpoint table, drives attempts over the control connections
// (none when it is the only process), runs its own rank range in each, and
// decides the run's outcome: success only when every tile is committed.
// It journals nothing; a respawned head rebuilds its table from the joins.
func runClusterHead(ctx context.Context, h *rankHost) (Stats, error) {
	n := len(h.cc.Procs)
	// The table starts empty: this process's ranks have stored nothing (its
	// ShardWriters truncate on open, so a dead head's output at them is
	// gone), and every worker's join fills its rows before the first
	// assignment.
	cp := newCheckpoints(h.cfg.Plan)
	// Only joins read the digest: an in-process run computes none.
	var digest uint64
	if n > 1 {
		digest = h.configDigest()
	}

	conns := make([]*tcp.CtrlConn, n)
	defer func() {
		for _, cc := range conns {
			if cc != nil {
				cc.Close()
			}
		}
	}()
	// set makes proc p's rows what it says its sinks stored; nil for a
	// proc that died.
	set := func(p int, abs map[int]map[int]int64) {
		cp.set(h.cc.Procs[p].Lo, h.cc.Procs[p].Hi, abs)
	}
	// ensureWorkers blocks until every worker has a live control
	// connection that has completed its join, whose counts become the
	// worker's rows — at startup, and again after a death while the
	// external supervisor (script, orchestrator) respawns the process. A
	// join under another configuration fails the run: the worker is told
	// so in a done of its own, and the error names both digests.
	ensureWorkers := func() error {
		for slices.Contains(conns[1:], nil) {
			cc, err := h.cc.Node.AcceptControl(ctx)
			if err != nil {
				return fmt.Errorf("dist: head waiting for workers: %w", err)
			}
			if cc.Peer < 1 || cc.Peer >= n {
				cc.Close()
				continue
			}
			cc.StartHeartbeat(h.cc.heartbeatInterval(), h.cc.HeartbeatDeadline)
			jctx, cancel := context.WithTimeout(ctx, reportTimeout)
			var jm ctrlMsg
			jerr := cc.Recv(jctx, &jm)
			cancel()
			if jerr != nil || jm.Kind != ctrlJoin {
				cc.Close()
				continue
			}
			if jm.Config != digest {
				err := fmt.Errorf("dist: proc %d joined with configuration %016x, the head's is %016x (process split, owner map or batch size differ)",
					cc.Peer, jm.Config, digest)
				_ = cc.Send(ctrlMsg{Kind: ctrlDone, Err: err.Error()})
				cc.Close()
				return err
			}
			set(cc.Peer, jm.Stored)
			if old := conns[cc.Peer]; old != nil {
				old.Close() // superseded by a redial
			}
			conns[cc.Peer] = cc
		}
		return nil
	}

	agg := newRunStats(h.cfg.Plan.R)
	// resumed: the first joins reported stored arcs, so this head took
	// over a run a dead one began.
	resumed := false
	var runErr error
	for attempt := 0; ; attempt++ {
		if err := ensureWorkers(); err != nil {
			runErr = err
			break
		}
		if attempt == 0 {
			for _, ts := range cp.tiles {
				resumed = resumed || ts.storedTotal() > 0
			}
		}
		// Assignment: every uncommitted tile at its owner. Joins may have
		// zeroed a respawned proc's rows since the last attempt,
		// un-committing tiles whose edges lived there.
		assignIDs := cp.assign()
		// lose records a worker that died this attempt. Its durable output
		// dies with it (its ShardWriters truncate on respawn), so every
		// stored count at its ranks resets, and it is the one to blame.
		var deadProcs []int
		var lost []error
		lose := func(p int, err error) {
			conns[p].Close()
			conns[p] = nil
			set(p, nil)
			deadProcs = append(deadProcs, p)
			lost = append(lost, fmt.Errorf("proc %d: %w", p, err))
		}
		begin := ctrlMsg{Kind: ctrlBegin, Tiles: assignIDs}
		for p := 1; p < n; p++ {
			if err := conns[p].Send(begin); err != nil {
				// Died between attempts; the attempt proceeds and fails
				// recoverably, and ensureWorkers picks up the respawn.
				lose(p, err)
			}
		}

		// fold merges proc p's report into the stats and the checkpoint
		// table. This process's own report carries the fault as the error
		// value it was, returned unchanged; a worker's crossed the wire as a
		// string. blame is the first rank a report names.
		var attemptErr error
		recoverable, blame := true, -1
		fold := func(p int, rep *ctrlMsg) {
			foldReport(&agg, rep)
			set(p, rep.Stored)
			if rep.RunErr == "" {
				return
			}
			if attemptErr == nil || !rep.Recoverable {
				if attemptErr = rep.err; attemptErr == nil {
					attemptErr = errors.New(rep.RunErr)
				}
			}
			recoverable = recoverable && rep.Recoverable
			if blame < 0 {
				blame = rep.Blame
			}
		}
		rep0 := h.attempt(ctx, assignIDs)
		fold(0, &rep0)

		// Collect: a worker reports when its own share is done, however
		// long after the head's that is; only the run's context and the
		// control link's liveness bound the wait.
		for p := 1; p < n; p++ {
			if conns[p] == nil {
				continue
			}
			var m ctrlMsg
			err := conns[p].Recv(ctx, &m)
			if err == nil && m.Kind != ctrlReport {
				err = fmt.Errorf("sent %q instead of a report", m.Kind)
			}
			if err != nil {
				lose(p, err)
				continue
			}
			if err := h.checkReport(cp, p, &m); err != nil {
				// Not a fault a retry can fix: the sender is broken or a stranger.
				conns[p].Close()
				conns[p] = nil
				attemptErr, recoverable = err, false
				continue
			}
			fold(p, &m)
		}
		if len(deadProcs) > 0 {
			blame = h.cc.Procs[deadProcs[0]].Lo
			if attemptErr == nil {
				attemptErr = fmt.Errorf("dist: proc(s) %v died mid-attempt: %w", deadProcs, errors.Join(lost...))
			}
		}
		if runErr = attemptErr; runErr == nil {
			// Every process says it stored what it was sent; the table
			// must agree, or the run ends loudly with arcs missing.
			if left := uncommitted(cp); len(left) > 0 {
				runErr = fmt.Errorf("dist: every process reported success, but tiles %v are not committed: their stored counts fall short of their arcs", left)
			} else if attempt > 0 || resumed {
				agg.RecoveredRuns = 1
			}
			break
		}
		if !recoverable || attempt >= h.cfg.MaxRetries {
			break
		}
		// Book the retry on the blamed rank, whichever process hosts it; a
		// fault no report localized is booked on rank 0.
		agg.RetriesPerRank[max(blame, 0)]++
		runErr = nil
		if err := sleepCtx(ctx, backoff(h.cfg.Backoff, attempt+1)); err != nil {
			runErr = err
			break
		}
	}

	// Conclude: tell every reachable worker, wait for their sinks to
	// flush (bye) so on-disk output is complete before the caller
	// finalizes a manifest, then close local sinks.
	done := ctrlMsg{Kind: ctrlDone}
	if runErr != nil {
		done.Err = runErr.Error()
	}
	for p := 1; p < n; p++ {
		if conns[p] == nil {
			continue
		}
		if err := conns[p].Send(done); err != nil {
			conns[p].Close()
			conns[p] = nil
		}
	}
	for p := 1; p < n; p++ {
		if conns[p] == nil {
			continue
		}
		rctx, cancel := context.WithTimeout(ctx, reportTimeout)
		var m ctrlMsg
		_ = conns[p].Recv(rctx, &m)
		cancel()
	}
	if ferr := h.finalize(); runErr == nil {
		runErr = ferr
	}
	agg.OutstandingBufs = h.bufsOut
	return agg, runErr
}

// uncommitted returns the IDs of the tiles cp would assign again, in
// ascending order.
func uncommitted(cp *checkpoints) []int {
	var ids []int
	for _, l := range cp.assign() {
		ids = append(ids, l...)
	}
	slices.Sort(ids)
	return ids
}

// GenerateChainClusterToStore runs the chain generator across the static
// cluster in cc with a store sink: every process streams its local ranks'
// owned edges to shard files under the shared dir (shard index = global
// rank, so the processes never collide), and the head finalizes the
// manifest from the shard files themselves once every worker has flushed
// — store.Recover derives the exact counts, which stays correct even when
// a respawned worker truncated and rewrote its shards mid-run. Workers
// return a nil store. The plan hash covers the chain's dimensions, so
// mixed-depth clusters refuse to form.
func GenerateChainClusterToStore(ctx context.Context, ch *core.Chain, dir string, twoD bool, cc ClusterConfig, rec Recovery) (*store.Store, Stats, error) {
	return generateChainClusterToStoreFrom(ctx, ch, dir, twoD, 0, -1, cc, rec)
}

// generateChainClusterToStoreFrom is GenerateChainClusterToStore over a
// contiguous window of the stream (see GenerateChainToStoreFrom). Every
// process must pass the same offset and limit: the window is folded into
// the tiles before planning, so PlanHash covers it and a cluster whose
// processes sliced at different positions refuses to form instead of
// silently mixing windows. (No fault plan: cmd/krongen kills from its
// sink.)
func generateChainClusterToStoreFrom(ctx context.Context, ch *core.Chain, dir string, twoD bool, offset, limit int64, cc ClusterConfig, rec Recovery) (*store.Store, Stats, error) {
	r := cc.Procs[len(cc.Procs)-1].Hi
	plan, err := sliceForChain(ch, r, twoD, offset, limit)
	if err != nil {
		return nil, Stats{}, err
	}
	cfg := Config{
		Plan:     plan,
		Owner:    OwnerBySource,
		Sink:     NewStoreSink(dir, r),
		Recovery: rec,
	}
	st, err := RunCluster(ctx, cc, cfg)
	if err != nil {
		return nil, st, err
	}
	if cc.Self != 0 {
		return nil, st, nil
	}
	s, err := store.Recover(dir, plan.NC)
	if err != nil {
		return nil, st, fmt.Errorf("dist: finalizing cluster store: %w", err)
	}
	return s, st, nil
}
