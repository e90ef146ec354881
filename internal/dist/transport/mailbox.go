package transport

import (
	"context"
	"sync"
	"sync/atomic"
)

// Mailbox is what a process does for the ranks [lo, hi) it hosts, whatever
// links it to the others: a buffered inbox per rank, delivery between local
// ranks with inline progress, the receive side, the local stage of the
// collectives and the failure latch every blocked call honours. The chan
// transport is a Mailbox over all R ranks; the TCP transport is one over its
// rank range plus links, its star reduce the collectives' cross-process phase.
type Mailbox struct {
	*Monitor

	r, lo   int
	inboxes []chan Batch // indexed rank-lo

	maxDepth atomic.Int64 // deepest observed inbox backlog (Stats.MaxInboxDepth)

	// Collective state: one accumulator and one generation channel, closed
	// by the last local arriver once it has published the generation's
	// result. total and cerr are written under mu before the close, so
	// waiters read them through the close's happens-before edge; a later
	// generation cannot overwrite them until every waiter has re-entered.
	// up, when non-nil, is the cross-process phase the last arriver runs
	// with the local sum; seq numbers the generations so attempts'
	// collectives cannot interleave on the wire.
	up    func(ctx context.Context, seq, sum int64) (int64, error)
	mu    sync.Mutex
	cnt   int
	acc   int64
	seq   int64
	total int64
	cerr  error
	gen   chan struct{}
}

// NewMailbox hosts ranks [lo, hi) of an r-rank cluster. Inboxes are
// buffered (4r+16 batches) so the generate-then-drain pattern keeps senders
// and receivers loosely coupled without unbounded memory.
func NewMailbox(lo, hi, r int, up func(ctx context.Context, seq, sum int64) (int64, error)) *Mailbox {
	m := &Mailbox{Monitor: NewMonitor(), r: r, lo: lo, up: up,
		inboxes: make([]chan Batch, hi-lo), gen: make(chan struct{})}
	for i := range m.inboxes {
		m.inboxes[i] = make(chan Batch, 4*r+16)
	}
	return m
}

// R implements Transport.
func (m *Mailbox) R() int { return m.r }

// Local implements Transport.
func (m *Mailbox) Local() (lo, hi int) { return m.lo, m.lo + len(m.inboxes) }

// Inbox is a hosted rank's inbox, for a transport's own Post calls.
func (m *Mailbox) Inbox(rank int) <-chan Batch { return m.inboxes[rank-m.lo] }

// Send delivers b to a hosted rank as Transport.SendBatch specifies. A
// self-addressed batch is applied through progress directly, as an MPI
// rank does for local traffic. A failed transport refuses new work at
// once: a send could otherwise win the select against the verdict and
// look delivered. A link reader delivering a remote rank's decoded batch
// passes a nil progress: it has no inbox to serve.
func (m *Mailbox) Send(ctx context.Context, b Batch, progress func(Batch)) error {
	if err := m.Err(); err != nil {
		return err
	}
	var own <-chan Batch
	if progress != nil {
		if b.Dest == b.From {
			progress(b)
			return nil
		}
		own = m.Inbox(b.From)
	}
	inbox := m.inboxes[b.Dest-m.lo]
	if err := Post(ctx, m.Monitor, inbox, b, own, progress); err != nil {
		return err
	}
	m.noteDepth(inbox)
	return nil
}

// Inject enqueues a batch directly into its destination inbox, skipping
// fault injection and flow control — the smuggling hook the epoch-fence
// and conformance tests use to forge residue from another attempt.
func (m *Mailbox) Inject(b Batch) { m.inboxes[b.Dest-m.lo] <- b }

func (m *Mailbox) noteDepth(inbox chan Batch) {
	d := int64(len(inbox))
	for {
		cur := m.maxDepth.Load()
		if d <= cur || m.maxDepth.CompareAndSwap(cur, d) {
			return
		}
	}
}

// MaxDepth reports the deepest observed inbox backlog, in batches.
func (m *Mailbox) MaxDepth() int64 { return m.maxDepth.Load() }

// Depth reports the current backlog of one rank's inbox — test and
// diagnostics surface, not part of the Transport contract.
func (m *Mailbox) Depth(rank int) int { return len(m.inboxes[rank-m.lo]) }

// TryRecv implements Transport.
func (m *Mailbox) TryRecv(rank int) (Batch, bool) {
	select {
	case b := <-m.inboxes[rank-m.lo]:
		return b, true
	default:
		return Batch{}, false
	}
}

// Recv implements Transport; buffered batches come before the failure.
func (m *Mailbox) Recv(ctx context.Context, rank int) (Batch, error) {
	return Await(ctx, m.Monitor, m.Inbox(rank))
}

// Barrier implements Transport.
func (m *Mailbox) Barrier(ctx context.Context, rank int) error {
	_, err := m.AllReduceSum(ctx, rank, 0)
	return err
}

// AllReduceSum implements Transport: add v, and either wait for the
// generation's channel to close or, as the last local arriver, run the
// cross-process phase and publish the result — the grand total, or the
// failure that kept it from forming — to the waiters.
//
// A waiter never bails on a verdict alone: the last arriver may still
// complete this collective from frames a peer sent before its link died
// (already buffered locally), and publishes the failure through the same
// channel if the death was real. Only ctx bounds the wait — the engine
// cancels it with the first rank error as its cause. A rank that withdraws
// un-counts itself, keeping the state consistent for later generations.
func (m *Mailbox) AllReduceSum(ctx context.Context, rank int, v int64) (int64, error) {
	m.mu.Lock()
	m.acc += v
	m.cnt++
	if m.cnt < len(m.inboxes) {
		ch := m.gen
		m.mu.Unlock()
		select {
		case <-ch:
			return m.total, m.cerr
		case <-ctx.Done():
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		select {
		case <-ch: // completed while we were acquiring the lock: honour it
			return m.total, m.cerr
		default:
		}
		if m.cnt < len(m.inboxes) { // else the last arriver is out in up and rewinds the count itself
			m.cnt--
			m.acc -= v
		}
		return 0, context.Cause(ctx)
	}
	sum, seq := m.acc, m.seq
	var err error
	if m.up != nil {
		m.mu.Unlock()
		sum, err = m.up(ctx, seq, sum)
		m.mu.Lock()
	}
	m.total, m.cerr = sum, err
	m.cnt, m.acc = 0, 0
	m.seq++
	ch := m.gen
	m.gen = make(chan struct{})
	close(ch)
	m.mu.Unlock()
	return sum, err
}

// Reset implements Transport: drains every inbox through release and
// rewinds the local collective stage. The verdict stays: whether a
// failure heals between attempts is the transport's to say. Must not be
// called concurrently with a run.
func (m *Mailbox) Reset(release func(Batch)) {
	for rank := m.lo; rank < m.lo+len(m.inboxes); rank++ {
		for b, ok := m.TryRecv(rank); ok; b, ok = m.TryRecv(rank) {
			if release != nil {
				release(b)
			}
		}
	}
	m.mu.Lock()
	m.cnt, m.acc = 0, 0
	m.mu.Unlock()
	m.maxDepth.Store(0)
}
