package dist

// Fault injection for the engine. At Sequoia scale the MPI layer absorbs
// dying ranks; the paper's validation workflow only trusts generated ground
// truth because every such failure either completes correctly or fails
// loudly. A FaultPlan schedules rank crashes at the points a real job dies
// at, deterministically, so a failing chaos schedule replays exactly. It
// arms the same way in process and in a cluster: each process's ranks obey
// the specs that name them.
//
// The invariant the chaos soak (chaos_test.go) asserts against armed runs
// is the verifiability contract: every run either produces the exact
// reference edge set or returns the injected fault as its error — no
// hangs, no partial silent success. With a retry budget (supervisor.go)
// the contract strengthens: the exact edge set *despite* the fault,
// because a crash is one-shot — a machine that died does not re-die
// identically on the replay attempt. That is why the crash countdowns are
// lifetime state of the process, surviving every attempt.

import (
	"fmt"
	"sync/atomic"
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
	// FaultAfterWalk crashes the rank once per attempt, after its walk ended
	// cleanly and before its balance check: the one point that fails an
	// attempt after the rank's sink has stored its whole share.
	FaultAfterWalk
)

func (p FaultPoint) String() string {
	switch p {
	case FaultNone:
		return "none"
	case FaultBeforeSinkSetup:
		return "before-sink-setup"
	case FaultMidExpansion:
		return "mid-expansion"
	case FaultAfterWalk:
		return "after-walk"
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

// FaultPlan is a deterministic crash schedule for one run (Config.Faults).
// The zero value injects nothing. A process arms it once and its ranks
// obey the specs that name them; the countdowns keep counting across
// attempts, so a supervised replay does not re-suffer a crash that already
// fired.
type FaultPlan struct {
	// Crashes schedules any number of rank deaths (see CrashSpec).
	Crashes []CrashSpec
}

// faultState is the armed form of a FaultPlan, one per process.
type faultState struct {
	plan      FaultPlan
	crashLeft []int64 // atomic countdowns, one per spec; lifetime state
}

func newFaultState(plan FaultPlan) *faultState {
	s := &faultState{plan: plan, crashLeft: make([]int64, len(plan.Crashes))}
	for i, sp := range plan.Crashes {
		s.crashLeft[i] = sp.After + 1
	}
	return s
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
