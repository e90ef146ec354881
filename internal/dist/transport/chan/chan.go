// Package chantransport is the in-process Transport: R ranks in one
// address space exchanging batches over buffered Go channels — the
// simulated cluster the repo ran on before cluster mode existed, now as
// one implementation of the transport contract: a transport.Mailbox over
// all R ranks plus the partition simulation. Delivery is zero-copy (the
// receiver gets the sender's very slice), per-link FIFO follows from
// channel semantics, and the collectives are the Mailbox's local stage
// with no cross-process phase behind it.
package chantransport

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"kronlab/internal/dist/transport"
)

// Transport is the in-process channel transport for r ranks.
type Transport struct {
	*transport.Mailbox

	// Partition simulation: a partitioned rank's traffic is silently
	// black-holed — sends involving it "succeed" without delivering,
	// with every channel still open — so, exactly as with a real
	// network partition, only the failure detector can surface it.
	partitioned []atomic.Bool
	// voided holds black-holed batches so Reset can hand their pooled
	// buffers back through release; a partition must not leak buffers.
	voidMu sync.Mutex
	voided []transport.Batch
}

// New returns a transport hosting all r ranks in-process.
func New(r int) *Transport {
	return &Transport{Mailbox: transport.NewMailbox(0, r, r, nil), partitioned: make([]atomic.Bool, r)}
}

// void black-holes a cross-rank batch from or to a partitioned rank: the
// send "succeeds" (the channel is open, the caller cannot tell) but
// nothing is delivered. The batch is parked for Reset so its pooled
// buffer is not leaked. The verdict is checked first — a refused batch
// stays with the caller, so it must not also be parked.
func (t *Transport) void(b transport.Batch) (bool, error) {
	if err := t.Err(); err != nil || b.Dest == b.From ||
		!(t.partitioned[b.From].Load() || t.partitioned[b.Dest].Load()) {
		return false, err
	}
	t.voidMu.Lock()
	t.voided = append(t.voided, b)
	t.voidMu.Unlock()
	return true, nil
}

// SendBatch implements Transport: the Mailbox's local delivery, behind the
// partition's black hole.
func (t *Transport) SendBatch(ctx context.Context, b transport.Batch, progress func(transport.Batch)) error {
	if voided, err := t.void(b); voided || err != nil {
		return err
	}
	return t.Send(ctx, b, progress)
}

// Reset implements Transport: drains every inbox through release and
// rewinds the collective state. Partitions heal and the failure
// detector is disarmed, its verdict cleared — a supervised replay starts
// on an intact network, matching fault.go's one-shot posture (the
// partition that killed attempt N does not re-fire on attempt N+1);
// re-arm detection with EnableFailureDetection if the next run wants it.
// Must not be called concurrently with a run.
func (t *Transport) Reset(release func(transport.Batch)) {
	t.Stop()
	t.Mailbox.Reset(release)
	t.voidMu.Lock()
	voided := t.voided
	t.voided = nil
	t.voidMu.Unlock()
	for _, b := range voided {
		if release != nil {
			release(b)
		}
	}
	for i := range t.partitioned {
		t.partitioned[i].Store(false)
	}
	t.Monitor = transport.NewMonitor()
}

// Close implements Transport. The channel transport holds no external
// resources — inboxes are left for the GC so concurrent stragglers from
// an aborted run can never send on a closed channel — but a running
// failure detector is stopped.
func (t *Transport) Close() error {
	t.Stop()
	return nil
}

// EnableFailureDetection arms the simulated failure detector: the
// liveness monitor standing in for the TCP transport's application
// heartbeats. Each tick counts as "traffic heard" from every reachable
// rank; a rank black-holed by Partition stops being heard from, and once
// its silence exceeds the deadline the whole transport fails with a
// *transport.PeerError naming that rank — released through every blocked
// SendBatch and Recv, so a partitioned run dies loudly within the
// deadline instead of hanging. Call before the run starts; a second call
// while a detector is armed is a no-op.
func (t *Transport) EnableFailureDetection(interval, deadline time.Duration) {
	ranks := make([]int, t.R())
	heard := make([]int64, t.R()) // touched by the liveness loop only
	for i := range ranks {
		ranks[i], heard[i] = i, time.Now().UnixNano()
	}
	t.Watch(interval, deadline, ranks,
		func(rank int) {
			if !t.partitioned[rank].Load() {
				heard[rank] = time.Now().UnixNano()
			}
		},
		func(rank int) int64 { return heard[rank] })
}

// Partition black-holes one rank: from now on every cross-rank send
// from or to it is silently discarded with all channels left open — the
// sockets-open network partition. Nothing surfaces it except an armed
// failure detector (EnableFailureDetection); without one the run will
// simply hang waiting on batches that never arrive, exactly like an
// undetected real partition. Reset heals all partitions.
func (t *Transport) Partition(rank int) { t.partitioned[rank].Store(true) }
