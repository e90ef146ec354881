// Package chantransport is the in-process Transport: R ranks in one
// address space exchanging batches over buffered Go channels, a
// transport.Mailbox over all R ranks. Delivery is zero-copy (the receiver
// gets the sender's very slice) and per-link FIFO follows from channel
// semantics.
package chantransport

import (
	"context"

	"kronlab/internal/dist/transport"
)

// Transport is the in-process channel transport for r ranks.
type Transport struct {
	*transport.Mailbox
}

// New returns a transport hosting all r ranks in-process.
func New(r int) *Transport {
	return &Transport{Mailbox: transport.NewMailbox(0, r, r)}
}

// SendBatch implements Transport: the Mailbox's local delivery.
func (t *Transport) SendBatch(ctx context.Context, b transport.Batch, progress func(transport.Batch)) error {
	return t.Send(ctx, b, progress)
}

// Close implements Transport. The channel transport holds no external
// resources — inboxes are left for the GC so a concurrent straggler can
// never send on a closed channel.
func (t *Transport) Close() error { return nil }
