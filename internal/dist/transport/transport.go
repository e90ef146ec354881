// Package transport defines a rank-to-rank batch link: a Transport
// delivers tile-framed edge batches between ranks, over goroutine channels
// in one process (transport/chan) or over length-prefixed TCP between
// processes (transport/tcp). The engine in internal/dist uses neither:
// every rank generates what it stores and checks its own balance, so
// nothing crosses a rank boundary. The batch path is the transports' own
// contract, which the conformance suite and the benchmark probes drive.
//
// Contract highlights (the conformance suite asserts these against every
// implementation):
//
//   - Per-link FIFO: batches from rank s to rank d are delivered in the
//     order s sent them. Cross-link order is unspecified.
//   - SendBatch may block; while it does, the implementation must keep
//     delivering batches addressed to the *sending* rank through the
//     progress callback — the inline receive progress that makes a
//     bufferless all-to-all deadlock-free (any rank blocked sending is
//     itself one recv away from freeing a peer).
//   - A blocked SendBatch/Recv returns the cancellation cause of ctx when
//     the caller tears down, never hangs.
//   - Ownership of Batch.Edges passes to the transport on a successful
//     SendBatch only: an in-process transport hands the very slice to
//     the receiver (zero copy), a wire transport serializes it and
//     returns it to the BufferPool. On an error return the buffer stays
//     with the caller.
package transport

import (
	"context"
	"fmt"
	"time"

	"kronlab/internal/graph"
)

// Batch is one unit of rank-to-rank traffic: a tile-framed run of
// product edges from one sender, or a bare EOF marker ending the
// sender's stream for the exchange. Epoch is the run attempt the batch
// belongs to; receivers fence on it so residue from a torn-down attempt
// can never be double-applied.
type Batch struct {
	From  int
	Dest  int
	Epoch int64
	Tile  int
	Edges []graph.Edge
	EOF   bool
}

// BufferPool recycles edge batch buffers across the transport boundary,
// so a wire transport's decode path and serialize-then-discard path
// stay in the caller's pooled-buffer accounting instead of allocating
// per batch.
type BufferPool interface {
	// Get returns an empty buffer with capacity for about n edges.
	Get(n int) []graph.Edge
	// Put recycles a buffer the transport is done with.
	Put(b []graph.Edge)
}

// Transport is a rank-to-rank batch link. All rank arguments are global
// rank IDs in [0, R); Recv/TryRecv may only be called for local ranks.
// Implementations must be safe for concurrent use by all local ranks (one
// goroutine per rank).
type Transport interface {
	// R returns the total number of ranks across the whole cluster.
	R() int
	// Local returns the contiguous rank range [lo, hi) hosted by this
	// process. In-process transports host every rank: (0, R).
	Local() (lo, hi int)
	// SendBatch delivers b to rank b.Dest, blocking until accepted.
	// While blocked it delivers batches addressed to rank b.From through
	// progress. It returns ctx's cancellation cause when the run is torn
	// down, or a transport failure (e.g. a dead peer link) — either way
	// the batch was not delivered and its buffer stays with the caller.
	SendBatch(ctx context.Context, b Batch, progress func(Batch)) error
	// TryRecv pops one pending batch for a local rank without blocking.
	TryRecv(rank int) (Batch, bool)
	// Recv blocks until a batch for a local rank arrives, returning
	// ctx's cancellation cause or the transport failure otherwise.
	Recv(ctx context.Context, rank int) (Batch, error)
	// Close tears the transport down; blocked calls return errors.
	Close() error
}

// PeerError reports the death of a peer process's link — a broken
// socket, or silence past the heartbeat deadline. It carries the peer's
// proc index so the caller can name the right process.
type PeerError struct {
	Proc int
	Err  error
}

func (e *PeerError) Error() string {
	return fmt.Sprintf("transport: link to proc %d failed: %v", e.Proc, e.Err)
}

func (e *PeerError) Unwrap() error { return e.Err }

// Proc names one process of a static cluster: its listen address and the
// contiguous global rank range [Lo, Hi) it hosts.
type Proc struct {
	Addr   string
	Lo, Hi int
}

// SplitRanks assigns r ranks contiguously and near-evenly across the
// given addresses — the static peer layout of cluster mode. Process i
// owns [i·r/n, (i+1)·r/n).
func SplitRanks(addrs []string, r int) []Proc {
	n := len(addrs)
	procs := make([]Proc, n)
	for i, a := range addrs {
		procs[i] = Proc{Addr: a, Lo: i * r / n, Hi: (i + 1) * r / n}
	}
	return procs
}

// TCPFaults schedules wire-level fault injection for the TCP transport,
// for its own tests and the conformance suite. The zero value injects
// nothing. Frame counters are process-wide across links, so a schedule
// stays deterministic regardless of how traffic interleaves across peers.
type TCPFaults struct {
	// DialDelay delays every outbound dial — a slow peer coming up.
	DialDelay time.Duration
	// ResetAfterFrames hard-closes (RST) the link that writes the Nth
	// outbound batch frame of this process, mid-exchange.
	ResetAfterFrames int64
	// PartialWriteFrame writes only a prefix of the Nth outbound batch
	// frame before hard-closing the link — a torn frame the peer's
	// decoder must reject loudly.
	PartialWriteFrame int64
	// PartitionAfterFrames black-holes this process after it writes the
	// Nth outbound batch frame: every socket stays open, but outbound
	// frames are silently discarded and inbound frames silently dropped —
	// the half-open network partition only a heartbeat deadline can
	// surface.
	PartitionAfterFrames int64
}
