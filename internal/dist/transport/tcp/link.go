package tcp

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/wire"
)

// outQDepth is the per-link writer queue, in frames. Deep enough that a
// burst of flushes from every local rank doesn't serialize on the
// socket; bounded so a stalled peer exerts backpressure instead of
// buffering the whole exchange in memory.
const outQDepth = 256

// framePool recycles encoded frame buffers between the senders and the
// link writers.
var framePool = sync.Pool{New: func() any { return []byte(nil) }}

// link is one live framed connection to a peer process — an attempt's
// data link or a persistent control link, the same machine either way: a
// reader that stamps lastRecv and hands every non-ping frame to the
// owner, and a writer draining a bounded frame queue onto the socket. A
// socket error on either side is the peer's death and trips the monitor.
type link struct {
	self, proc int
	epoch      int64 // stamped on the frames the link builds itself
	conn       net.Conn
	faults     *FaultState        // nil on control links
	mon        *transport.Monitor // the owner's verdict; ends both loops
	ctx        context.Context    // done once the owner closes

	outQ         chan []byte
	wDone, rDone chan struct{}

	// lastRecv is the UnixNano of the last frame read from this peer
	// (any kind, heartbeats included) — the liveness signal the monitor
	// holds against the heartbeat deadline.
	lastRecv atomic.Int64
}

// start launches the link's reader, which passes frames to handle, and
// its writer. br may hold bytes read past the handshake.
func (l *link) start(br *bufio.Reader, handle func(wire.Header, []byte) error) {
	l.outQ = make(chan []byte, outQDepth)
	l.wDone, l.rDone = make(chan struct{}), make(chan struct{})
	l.lastRecv.Store(time.Now().UnixNano())
	go l.writeLoop()
	go l.readLoop(br, handle)
}

// shut ends the link once the owner has cancelled l.ctx. Writer first: it
// drains queued frames and flushes, so a release, EOF or bye already
// queued reaches the peer before the socket drops (a writer blocked on a
// dead peer exits via the write error).
func (l *link) shut() error {
	<-l.wDone
	err := l.conn.Close()
	<-l.rDone
	return err
}

// smallFrame builds one header-plus-payload frame in a pooled buffer.
func smallFrame(kind uint8, from, dest int, epoch, tile int64, payload []byte) []byte {
	f := append(framePool.Get().([]byte)[:0], make([]byte, wire.HeaderSize)...)
	wire.PutHeader(f, wire.Header{
		Kind: kind, From: uint32(from), Dest: uint32(dest),
		Epoch: epoch, Tile: tile, PayloadLen: uint32(len(payload)),
	})
	return append(f, payload...)
}

// frame builds one small frame addressed to the peer.
func (l *link) frame(kind uint8, tile int64, payload []byte) []byte {
	return smallFrame(kind, l.self, l.proc, l.epoch, tile, payload)
}

// offer queues frame if the writer queue has room right now and
// recycles it otherwise.
func (l *link) offer(frame []byte) {
	select {
	case l.outQ <- frame:
	default:
		framePool.Put(frame[:0])
	}
}

// watch starts mon's liveness loop over the links to peers: ping each —
// unless its writer queue is full: the link is then moving real frames,
// proof of life enough — and hold its lastRecv against the deadline.
func watch(mon *transport.Monitor, interval, deadline time.Duration, peers []int, to func(peer int) *link) {
	mon.Watch(interval, deadline, peers,
		func(p int) { to(p).offer(to(p).frame(wire.KindPing, 0, nil)) },
		func(p int) int64 { return to(p).lastRecv.Load() })
}

// writeLoop drains the frame queue onto the socket, applying the armed
// fault schedule per batch frame.
func (l *link) writeLoop() {
	defer close(l.wDone)
	bw := bufio.NewWriterSize(l.conn, 1<<16)
	// write puts one frame on the wire — or, black-holed, nowhere: the
	// frame silently vanishes, the socket stays open, and the peer's only
	// clue is its heartbeat deadline.
	write := func(frame []byte) bool {
		var err error
		if !l.faults.Partitioned() {
			_, err = bw.Write(frame)
		}
		framePool.Put(frame[:0]) //nolint:staticcheck // slice header boxing is fine here
		if err != nil {
			l.mon.Fail(l.proc, err)
		}
		return err == nil
	}
	for buffered := false; ; buffered = true {
		var frame []byte
		select {
		case frame = <-l.outQ:
		default:
			// Opportunistic flush: only block on the queue once buffered
			// frames are on the wire, so a quiet link never strands them.
			if buffered {
				if err := bw.Flush(); err != nil {
					l.mon.Fail(l.proc, err)
					return
				}
			}
			select {
			case frame = <-l.outQ:
			case <-l.mon.Dead():
				return
			case <-l.ctx.Done():
				// Closing: the senders are done, so an empty queue stays
				// empty, and everything written has been flushed.
				select {
				case frame = <-l.outQ:
				default:
					return
				}
			}
		}
		if f := l.faults; f != nil && frame[4] == wire.KindBatch {
			n := atomic.AddInt64(&f.frames, 1)
			switch {
			case f.plan.PartialWriteFrame > 0 && n == f.plan.PartialWriteFrame:
				bw.Write(frame[:len(frame)/2])
				bw.Flush()
				hardClose(l.conn)
				l.mon.Fail(l.proc, fmt.Errorf("%w (partial write)", errInjectedReset))
				return
			case f.plan.ResetAfterFrames > 0 && n == f.plan.ResetAfterFrames:
				hardClose(l.conn)
				l.mon.Fail(l.proc, errInjectedReset)
				return
			case f.plan.PartitionAfterFrames > 0 && n == f.plan.PartitionAfterFrames:
				f.Partition()
			}
		}
		if !write(frame) {
			return
		}
	}
}

// hardClose drops the connection with an RST (SO_LINGER 0) so the peer
// observes a reset, not an orderly EOF — the fault the schedule asks for.
func hardClose(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	conn.Close()
}

// readLoop reads frames until the socket or the owner's handler fails;
// either is the peer's death unless the owner is closing.
func (l *link) readLoop(br *bufio.Reader, handle func(wire.Header, []byte) error) {
	defer close(l.rDone)
	for {
		h, payload, err := readFrame(br)
		if err == nil {
			if l.faults.Partitioned() {
				// The black-hole is symmetric: inbound frames vanish too, and
				// lastRecv stays stale so this side's own monitor also fires.
				continue
			}
			l.lastRecv.Store(time.Now().UnixNano())
			if h.Kind == wire.KindPing {
				continue // pure liveness; lastRecv above is its entire effect
			}
			err = handle(h, payload)
		}
		if err != nil {
			if l.ctx.Err() == nil {
				l.mon.Fail(l.proc, err)
			}
			return
		}
	}
}

// readFrame reads one complete frame (header + payload). The returned
// payload aliases a per-call allocation sized by the header.
func readFrame(br *bufio.Reader) (wire.Header, []byte, error) {
	var hdr [wire.HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return wire.Header{}, nil, err
	}
	h, err := wire.ParseHeader(hdr[:])
	if err != nil {
		return wire.Header{}, nil, err
	}
	payload := make([]byte, h.PayloadLen)
	if _, err := io.ReadFull(br, payload); err != nil {
		return wire.Header{}, nil, fmt.Errorf("tcp: torn frame: %w", err)
	}
	return h, payload, nil
}

// writeAck writes a handshake ack (status + optional error text) straight
// to the connection — the handshake's form, before a link owns the socket.
func writeAck(conn net.Conn, from, dest int, epoch int64, status byte, msg string) error {
	_, err := conn.Write(smallFrame(wire.KindAck, from, dest, epoch, 0, append([]byte{status}, msg...)))
	return err
}
