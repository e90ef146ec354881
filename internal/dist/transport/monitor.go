package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// ErrHeartbeat marks a liveness verdict: a peer declared dead because it
// stayed silent past the deadline, not because a socket broke — the only
// thing that surfaces a partition (links open, nothing moving). It is
// always wrapped in a *PeerError naming the silent peer.
var ErrHeartbeat = errors.New("transport: heartbeat deadline exceeded")

// Monitor is one endpoint's verdict on its peers: a fail-once latch that
// every blocking call selects on, and the liveness loop that trips it on
// silence. A mesh, a control link and the chan transport each hold one.
type Monitor struct {
	dead   chan struct{}
	once   sync.Once
	err    error // a *PeerError, written before dead closes
	misses atomic.Int64

	// The liveness loop, once Watch started it: stop ends it, done closes
	// on its exit.
	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
}

// NewMonitor returns a monitor with no verdict.
func NewMonitor() *Monitor { return &Monitor{dead: make(chan struct{})} }

// Fail records the first failure as a PeerError naming peer and releases
// every blocked call; later failures are consequences and are dropped.
func (m *Monitor) Fail(peer int, err error) {
	m.once.Do(func() {
		m.err = &PeerError{Proc: peer, Err: err}
		close(m.dead)
	})
}

// Dead is closed once a failure is recorded.
func (m *Monitor) Dead() <-chan struct{} { return m.dead }

// Err returns the recorded failure, nil while there is none.
func (m *Monitor) Err() error {
	select {
	case <-m.dead:
		return m.err
	default:
		return nil
	}
}

// HeartbeatMisses counts ticks that found some peer silent for longer
// than the interval — early smoke for a link going quiet, whether or not
// it later crossed the deadline.
func (m *Monitor) HeartbeatMisses() int64 { return m.misses.Load() }

// Watch starts the liveness loop on a goroutine of its own, which runs
// until Stop or a verdict. Every interval it calls beat for each peer —
// queue a ping on its link or, on the simulated cluster, mark a reachable
// rank heard — then holds heard(peer), the UnixNano of the last sign of
// life, against the clock: any frame counts, so data flow is its own
// heartbeat and pings matter only on idle or black-holed links. Silence
// past deadline (≤ 0: 5× interval) fails the monitor with ErrHeartbeat.
// An interval ≤ 0 disables detection; a second call is a no-op.
func (m *Monitor) Watch(interval, deadline time.Duration, peers []int, beat func(peer int), heard func(peer int) int64) {
	if interval <= 0 || m.stop != nil {
		return
	}
	if deadline <= 0 {
		deadline = 5 * interval
	}
	m.stop, m.done = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(m.done)
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
			case <-m.stop:
				return
			case <-m.dead:
				return
			}
			for _, p := range peers {
				beat(p)
				silent := time.Since(time.Unix(0, heard(p)))
				if silent > interval {
					m.misses.Add(1)
				}
				if silent > deadline {
					m.Fail(p, fmt.Errorf("%w: no traffic from peer %d for %v (deadline %v)",
						ErrHeartbeat, p, silent.Round(time.Millisecond), deadline))
					return
				}
			}
		}
	}()
}

// Stop ends the liveness loop, if one was started, and waits for it to
// exit. Safe to call more than once.
func (m *Monitor) Stop() {
	if m.stop != nil {
		m.stopOnce.Do(func() { close(m.stop) })
		<-m.done
	}
}

// Await blocks for the next value on ch. A verdict releases it only once
// ch is empty: what a peer sent before its link died is already buffered
// (per-link FIFO), so a graceful shutdown right after a last send never
// eats a delivered batch, release or control message.
func Await[T any](ctx context.Context, m *Monitor, ch <-chan T) (v T, err error) {
	select {
	case v = <-ch:
	case <-ctx.Done():
		err = context.Cause(ctx)
	case <-m.dead:
		select {
		case v = <-ch:
		default:
			err = m.err
		}
	}
	return v, err
}

// Post blocks until ch accepts v. While it waits, batches arriving on
// own — the posting rank's inbox, nil when there is none — are handed to
// progress: the inline receive progress that keeps a bufferless
// all-to-all deadlock-free. A verdict or ctx's cancellation ends the
// wait with v not sent.
func Post[T any](ctx context.Context, m *Monitor, ch chan<- T, v T, own <-chan Batch, progress func(Batch)) error {
	for {
		select {
		case ch <- v:
			return nil
		case b := <-own:
			progress(b)
		case <-ctx.Done():
			return context.Cause(ctx)
		case <-m.dead:
			return m.err
		}
	}
}
