package dist

// Fault injection for the simulated cluster. At Sequoia scale the MPI
// layer absorbs slow links, dropped packets and dying ranks; the paper's
// validation workflow only trusts generated ground truth because every
// such failure mode either completes correctly or fails loudly. A
// FaultPlan arms the transport with exactly those faults — per-link
// delivery delay, probabilistic message drop with bounded redelivery,
// deterministic permanent message loss, and rank crashes at the points a
// real job dies at — deterministically for a given Seed, so a failing
// chaos schedule replays exactly.
//
// The invariant the chaos soak (chaos_test.go) asserts against armed
// clusters is the verifiability contract: every run either produces the
// exact reference edge set or returns the injected fault as its error —
// no hangs, no partial silent success. With a retry budget (supervisor.go)
// the contract strengthens for recoverable schedules: the exact edge set
// *despite* the fault, because crashes and losses are one-shot — a
// machine that died does not re-die identically on the replay attempt,
// just as a real dropped packet is not re-dropped deterministically.
// That is why the one-shot counters (crash countdowns, the lose-delivery
// window) are lifetime state surviving Cluster.Reset, while the seeded
// probabilistic faults re-arm on Reset and replay identically.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"

	"kronlab/internal/dist/transport"
)

// FaultPoint identifies where in a run an injected rank crash fires.
type FaultPoint int

const (
	// FaultNone disables crash injection (the zero value).
	FaultNone FaultPoint = iota
	// FaultBeforeSinkSetup crashes the rank before its sink is created.
	FaultBeforeSinkSetup
	// FaultMidExpansion crashes the rank while it expands its tiles. Its
	// countdown is in arcs the rank generates, taken a block at a time: the
	// arcs of a block that come before the crash are placed as usual and the
	// rank dies at that block's boundary, having generated exactly After.
	FaultMidExpansion
	// FaultMidExchange crashes the rank as it sends an exchange message.
	FaultMidExchange
	// FaultInCollective crashes the rank as it enters a collective.
	FaultInCollective
)

func (p FaultPoint) String() string {
	switch p {
	case FaultNone:
		return "none"
	case FaultBeforeSinkSetup:
		return "before-sink-setup"
	case FaultMidExpansion:
		return "mid-expansion"
	case FaultMidExchange:
		return "mid-exchange"
	case FaultInCollective:
		return "in-collective"
	default:
		return fmt.Sprintf("FaultPoint(%d)", int(p))
	}
}

// RankCrashError is the loud failure a crashed rank reports. The run's
// error chain carries it so callers can tell an injected (or simulated
// real) rank death apart from ordinary cancellation — and so the run
// supervisor knows which rank to blame for the retry.
type RankCrashError struct {
	Rank  int
	Point FaultPoint
}

func (e *RankCrashError) Error() string {
	return fmt.Sprintf("dist: rank %d crashed (%s)", e.Rank, e.Point)
}

// ErrMessageLost marks a message whose delivery was permanently lost
// (redelivery budget exhausted, or a scheduled deterministic loss). The
// transport cancels the run with it as the cause rather than silently
// losing an edge batch — a lost batch must never look like a successful
// generation with fewer edges.
var ErrMessageLost = errors.New("dist: message lost")

// MessageLostError is the structured form of ErrMessageLost: it names the
// link that lost the message so the supervisor can attribute the retry.
// errors.Is(err, ErrMessageLost) matches it.
type MessageLostError struct {
	From, To int
	Attempts int // delivery attempts made before declaring the loss
}

func (e *MessageLostError) Error() string {
	return fmt.Sprintf("dist: message %d→%d lost after %d delivery attempt(s)", e.From, e.To, e.Attempts)
}

func (e *MessageLostError) Unwrap() error { return ErrMessageLost }

// Link names one directed rank-to-rank connection.
type Link struct{ From, To int }

// LinkFault describes the failure behavior of one link (or, as
// FaultPlan.Link, the default for every cross-rank link).
type LinkFault struct {
	// MaxDelay makes each delivery sleep a seeded-random duration in
	// [0, MaxDelay] before entering the destination inbox.
	MaxDelay time.Duration
	// DropProb is the probability that each delivery attempt is dropped.
	DropProb float64
}

// CrashSpec schedules one rank death at an injection point. After is how
// many hits of the point the rank survives before dying (0 = die at the
// first hit). A crash is one-shot — the hit that exhausts the countdown
// fires it, later hits pass — unless Repeat marks the rank permanently
// broken, in which case every hit past the countdown crashes it again: a
// respawn replays the rank's tiles on the same rank, so such a run fails
// loudly once the retry budget is spent.
type CrashSpec struct {
	Rank   int
	Point  FaultPoint
	After  int64
	Repeat bool
}

// FaultPlan is a deterministic schedule of transport and rank faults for
// one cluster run. The zero value injects nothing. Arm a cluster with
// Cluster.InjectFaults (or an engine run with Config.Faults) before the
// run starts. Cluster.Reset re-seeds the probabilistic faults from Seed;
// the one-shot counters (crash countdowns, the lose window) deliberately
// keep counting across Reset so a supervised replay does not re-suffer a
// fault that already fired.
type FaultPlan struct {
	// Seed drives every probabilistic decision (delays and drops), keyed
	// additionally by the sending rank so schedules stay deterministic
	// under concurrency.
	Seed int64

	// Link is the default fault behavior of every cross-rank link.
	// Self-deliveries are never faulted: local delivery does not
	// traverse the network.
	Link LinkFault
	// Links overrides Link for specific directed links.
	Links map[Link]LinkFault
	// MaxRedeliver bounds retries after a dropped delivery attempt.
	// When all 1+MaxRedeliver attempts drop, the message is declared
	// lost and the run fails with a MessageLostError as its cause.
	MaxRedeliver int

	// LoseAfter and LoseDeliveries schedule deterministic permanent
	// message loss: across the cluster's lifetime, cross-rank delivery
	// attempts LoseAfter+1 .. LoseAfter+LoseDeliveries are lost outright
	// (no redelivery), each failing the run with a MessageLostError.
	// The sequence counter survives Reset, so a supervised retry gets
	// the batch through — exactly one loss per scheduled slot.
	LoseAfter      int64
	LoseDeliveries int64

	// Crashes schedules any number of rank deaths (see CrashSpec).
	Crashes []CrashSpec

	// PartitionRank and PartitionAfterSends schedule a simulated network
	// partition on the in-process transport: after the cluster's
	// PartitionAfterSends-th cross-rank delivery attempt, PartitionRank
	// is black-holed — its traffic silently discarded with every channel
	// still open — so only a failure detector can surface it. Zero
	// PartitionAfterSends disables the fault. The partition is one-shot
	// lifetime state like the lose window: it does not re-fire after
	// Reset, and Reset heals the network, so a supervised replay runs on
	// an intact cluster (the partition "healed" before the retry).
	PartitionRank       int
	PartitionAfterSends int64

	// FDInterval and FDDeadline configure the failure detector armed
	// alongside a scheduled partition (zero values: 2ms interval, 5×
	// deadline) — the in-process stand-in for cluster mode's heartbeats.
	FDInterval time.Duration
	FDDeadline time.Duration

	// TCP schedules wire-level faults for cluster mode (RunCluster): dial
	// delays, mid-exchange connection resets, torn frames and whole-process
	// kills, applied by the TCP transport of the process whose FaultPlan
	// carries them. The in-process fields above govern the simulated
	// transport only and are ignored by cluster mode; TCP is ignored by
	// in-process runs.
	TCP transport.TCPFaults
}

// faultState is the armed form of a FaultPlan inside a Cluster.
type faultState struct {
	plan FaultPlan
	// rngs are per sending rank and touched only by that rank's body
	// goroutine (the only goroutine that sends), so no locking is needed.
	rngs      []*rand.Rand
	crashLeft []int64 // atomic countdowns, one per spec; lifetime state
	loseSeq   int64   // atomic cross-rank delivery sequence; lifetime state

	// partition, when non-nil, black-holes a rank on the armed transport
	// (wired by Cluster.InjectFaults when the transport supports it).
	// partSeq counts cross-rank delivery attempts toward the scheduled
	// partition; lifetime state, so the fault fires exactly once.
	partition func(rank int)
	partSeq   int64
}

func newFaultState(plan FaultPlan, r int) *faultState {
	s := &faultState{plan: plan, rngs: make([]*rand.Rand, r), crashLeft: make([]int64, len(plan.Crashes))}
	for i, sp := range plan.Crashes {
		s.crashLeft[i] = sp.After + 1
	}
	s.reset()
	return s
}

// reset re-seeds the probabilistic rngs so a Reset cluster replays the
// identical delay/drop schedule. The one-shot counters (crash countdowns,
// lose window) are NOT re-armed: a crash or scheduled loss that already
// fired stays fired across attempts, which is what lets the supervisor's
// replay succeed where the first attempt died.
func (s *faultState) reset() {
	for i := range s.rngs {
		s.rngs[i] = rand.New(rand.NewSource(s.plan.Seed*0x9e3779b9 + int64(i)))
	}
}

// crashWithin takes n hits of an armed injection point by rank at once —
// one, or a block of n arcs at FaultMidExpansion — and reports how many of
// them the rank survives, with a RankCrashError when a scheduled crash is
// due among them (n and nil otherwise). One-shot specs fire on exactly the
// hit that exhausts their countdown; Repeat specs fire on that hit and
// every later one. The countdowns move by the hits taken, the firing one
// included, as they would one hit at a time.
func (s *faultState) crashWithin(rank int, p FaultPoint, n int64) (int64, error) {
	fire := n + 1 // the first hit that fires a spec; n+1 when none does
	for i, sp := range s.plan.Crashes {
		if left := atomic.LoadInt64(&s.crashLeft[i]); sp.Point == p && sp.Rank == rank && (left >= 1 || sp.Repeat) {
			fire = min(fire, max(left, 1))
		}
	}
	for i, sp := range s.plan.Crashes {
		if sp.Point == p && sp.Rank == rank {
			atomic.AddInt64(&s.crashLeft[i], -min(fire, n))
		}
	}
	if fire > n {
		return n, nil
	}
	return fire - 1, &RankCrashError{Rank: rank, Point: p}
}

func (s *faultState) linkFor(from, to int) LinkFault {
	if lf, ok := s.plan.Links[Link{From: from, To: to}]; ok {
		return lf
	}
	return s.plan.Link
}

// deliver applies link faults to one cross-rank message: a scheduled
// permanent loss, then a seeded delay (interruptible by run teardown),
// then drop/redelivery. It reports whether delivery should proceed; a
// non-nil error is a permanent loss.
func (s *faultState) deliver(ctx context.Context, from, to int) (bool, error) {
	if s.plan.PartitionAfterSends > 0 && s.partition != nil {
		if seq := atomic.AddInt64(&s.partSeq, 1); seq == s.plan.PartitionAfterSends {
			s.partition(s.plan.PartitionRank)
		}
	}
	if s.plan.LoseDeliveries > 0 {
		seq := atomic.AddInt64(&s.loseSeq, 1)
		if seq > s.plan.LoseAfter && seq <= s.plan.LoseAfter+s.plan.LoseDeliveries {
			return false, &MessageLostError{From: from, To: to, Attempts: 1}
		}
	}
	lf := s.linkFor(from, to)
	rng := s.rngs[from]
	if lf.MaxDelay > 0 {
		if d := time.Duration(rng.Int63n(int64(lf.MaxDelay) + 1)); d > 0 {
			timer := time.NewTimer(d)
			select {
			case <-timer.C:
			case <-ctx.Done():
				timer.Stop()
				return false, nil
			}
		}
	}
	if lf.DropProb > 0 {
		for redelivered := 0; rng.Float64() < lf.DropProb; redelivered++ {
			if redelivered >= s.plan.MaxRedeliver {
				return false, &MessageLostError{From: from, To: to, Attempts: redelivered + 1}
			}
		}
	}
	return true, nil
}
