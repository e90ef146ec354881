package transport

import "context"

// Mailbox is what a process does for the ranks [lo, hi) it hosts, whatever
// links it to the others: a buffered inbox per rank, delivery between local
// ranks with inline progress, the receive side and the failure latch every
// blocked call honours. The chan transport is a Mailbox over all R ranks;
// the TCP transport is one over its rank range plus links.
type Mailbox struct {
	*Monitor

	r, lo   int
	inboxes []chan Batch // indexed rank-lo
}

// NewMailbox hosts ranks [lo, hi) of an r-rank cluster. Inboxes are
// buffered (4r+16 batches) so the generate-then-drain pattern keeps senders
// and receivers loosely coupled without unbounded memory.
func NewMailbox(lo, hi, r int) *Mailbox {
	m := &Mailbox{Monitor: NewMonitor(), r: r, lo: lo, inboxes: make([]chan Batch, hi-lo)}
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
	return Post(ctx, m.Monitor, m.inboxes[b.Dest-m.lo], b, own, progress)
}

// Inject enqueues a batch directly into its destination inbox, skipping
// fault injection and flow control — the smuggling hook the epoch-fence
// and conformance tests use to forge residue from another attempt.
func (m *Mailbox) Inject(b Batch) { m.inboxes[b.Dest-m.lo] <- b }

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
