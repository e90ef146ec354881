package tcp

import (
	"context"
	"encoding/json"
	"fmt"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/wire"
)

// CtrlConn is a persistent control link carrying JSON-bodied KindControl
// frames — the worker↔head channel cluster mode coordinates attempts
// over, and the only link between its processes. It is a link like any
// data link (same reader, writer queue and liveness signal) with a
// monitor of its own, so each control link is its own verdict.
type CtrlConn struct {
	Peer int // the proc index at the other end

	link *link // with a monitor and a lifetime of its own
	// in carries decoded control payloads from the reader to Recv. The
	// protocol has one message outstanding per direction; the slack keeps
	// the reader from ever parking behind a busy consumer, so it goes on
	// stamping lastRecv from the peer's pings.
	in    chan []byte
	close context.CancelFunc
}

func newCtrlConn(pc peerConn, self, peer int) *CtrlConn {
	l := &link{self: self, proc: peer, conn: pc.conn, mon: transport.NewMonitor()}
	cc := &CtrlConn{Peer: peer, link: l, in: make(chan []byte, 4)}
	l.ctx, cc.close = context.WithCancel(context.Background())
	l.start(pc.br, func(h wire.Header, payload []byte) error {
		if h.Kind != wire.KindControl {
			return fmt.Errorf("tcp: control link got frame kind %d", h.Kind)
		}
		return transport.Post(l.ctx, l.mon, cc.in, payload, nil, nil)
	})
	return cc
}

// DialControl opens a control connection to the head. timeout (≤ 0 means
// 10s) bounds each underlying dial attempt and the whole exchange,
// deferred ack included.
func DialControl(ctx context.Context, addr string, self int, planHash uint64, timeout time.Duration) (*CtrlConn, error) {
	timeout = dialTimeout(timeout)
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	pc, err := dialPeer(ctx, addr, self, 0, -1, planHash, purposeCtrl, nil, timeout)
	if err != nil {
		return nil, err
	}
	return newCtrlConn(pc, self, 0), nil
}

// StartHeartbeat arms liveness on the control link: the shared liveness
// loop pings the peer every interval and fails the link with a PeerError
// wrapping transport.ErrHeartbeat once the peer has been silent past
// deadline — instead of Recv blocking forever on a black-holed link. Both
// ends must arm: each side's pings feed the other side's deadline. Close
// stops the loop.
func (cc *CtrlConn) StartHeartbeat(interval, deadline time.Duration) {
	watch(cc.link.mon, interval, deadline, []int{cc.Peer}, func(int) *link { return cc.link })
}

// Send JSON-encodes v into one control frame on the link's writer queue.
// A write that fails later surfaces as the link's death on the next Recv.
func (cc *CtrlConn) Send(v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		return err
	}
	l := cc.link
	if err := l.mon.Err(); err != nil {
		return err
	}
	return transport.Post(l.ctx, l.mon, l.outQ, l.frame(wire.KindControl, 0, body), nil, nil)
}

// Recv blocks for the next control message and decodes it into v;
// messages the peer sent before the link died come before the failure.
func (cc *CtrlConn) Recv(ctx context.Context, v any) error {
	body, err := transport.Await(ctx, cc.link.mon, cc.in)
	if err != nil {
		return err
	}
	return json.Unmarshal(body, v)
}

// Close flushes queued frames, closes the connection and stops the
// heartbeat. Safe to call more than once.
func (cc *CtrlConn) Close() error {
	cc.close()
	err := cc.link.shut()
	cc.link.mon.Stop()
	return err
}
