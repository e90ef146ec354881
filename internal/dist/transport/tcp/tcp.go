// Package tcp is the multi-process Transport and the control links of
// cluster mode. A process keeps one persistent Node (listener, handshake,
// connection parking) for its lifetime. Connections handshake with protocol
// version (checked on every frame by the wire codec), plan hash and
// purpose; a mismatched peer is refused loudly, on both ends.
//
// A control link (CtrlConn) is a worker's persistent connection to the
// head, carrying JSON control messages and heartbeats; it is all that
// links the processes of a cluster-mode run, whose engine sends no arc
// between ranks.
//
// A Transport is a full mesh of length-prefixed data links between N
// processes, each hosting a contiguous range of R ranks, built per epoch by
// Connect. Frames are the wire package's header + raw store records, so a
// staged batch buffer is serialized straight onto the socket with no
// intermediate representation. A dialer whose epoch is ahead of the
// acceptor is parked until the acceptor's process reaches that epoch — the
// ack is deferred until the local Transport claims the connection. What
// the process does for the ranks it hosts is a transport.Mailbox, as in the
// chan transport; this package adds the links (link.go: one reader, one
// writer, one liveness signal per connection, data and control alike).
package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/wire"
	"kronlab/internal/graph"
)

// handshake purposes, carried in the Hello payload's first byte.
const (
	purposeData = 1 // attempt-scoped data link between two procs
	purposeCtrl = 2 // persistent control link, worker → head
)

// ack statuses, carried in the Ack payload's first byte.
const (
	ackOK      = 0
	ackBadPlan = 1
)

// helloPayloadLen is purpose (1) + plan hash (8).
const helloPayloadLen = 9

// ErrHandshake wraps every handshake refusal so both sides fail loudly
// and identifiably.
var ErrHandshake = errors.New("tcp: handshake refused")

// Config describes one process's place in the static cluster.
type Config struct {
	// Procs is the cluster layout — identical on every process (the plan
	// hash guards against drift in everything the layout derives from).
	Procs []transport.Proc
	// Self is this process's index in Procs.
	Self int
	// PlanHash fingerprints the generation plan (factors, decomposition,
	// rank count). Peers with different hashes refuse each other.
	PlanHash uint64
	// Pool recycles decoded batch buffers; nil allocates per batch.
	Pool transport.BufferPool
	// Faults, when non-nil, arms wire-level fault injection (see
	// transport.TCPFaults). Shared across attempts so frame countdowns
	// fire once per process lifetime.
	Faults *FaultState
	// DialTimeout bounds mesh establishment per attempt; ≤ 0 means 10s.
	// It also drives the per-connection dial and handshake-read deadlines,
	// so a slow network widens every timeout together instead of tripping
	// over a hardcoded one.
	DialTimeout time.Duration
	// HeartbeatInterval is how often each link sends an application-level
	// ping when otherwise idle; ≤ 0 disables heartbeats (and with them
	// deadline-based failure detection).
	HeartbeatInterval time.Duration
	// HeartbeatDeadline is the longest a link may stay silent before the
	// peer is declared dead with a PeerError. ≤ 0 with a positive interval
	// means 5× the interval.
	HeartbeatDeadline time.Duration
}

// dialTimeout resolves a configured dial timeout: ≤ 0 means 10s.
func dialTimeout(d time.Duration) time.Duration {
	if d > 0 {
		return d
	}
	return 10 * time.Second
}

// FaultState is an armed transport.TCPFaults schedule with its lifetime
// frame counter — process-wide across links and attempts, so a schedule
// is deterministic in the number of batch frames written, regardless of
// how traffic interleaves across peers.
type FaultState struct {
	plan        transport.TCPFaults
	frames      int64
	partitioned atomic.Bool
}

// NewFaultState arms a schedule.
func NewFaultState(plan transport.TCPFaults) *FaultState { return &FaultState{plan: plan} }

// Partition black-holes the process immediately: sockets stay open, but
// from now on outbound frames are discarded and inbound frames dropped.
// The scheduled form is TCPFaults.PartitionAfterFrames.
func (f *FaultState) Partition() { f.partitioned.Store(true) }

// Partitioned reports whether the black-hole is active (never, on nil).
func (f *FaultState) Partitioned() bool { return f != nil && f.partitioned.Load() }

// errInjectedReset tags a fault-injected link death so tests can tell it
// from a real one.
var errInjectedReset = errors.New("tcp: injected connection reset")

// key identifies a parked inbound data connection.
type key struct {
	from  int
	epoch int64
}

// peerConn is a handshake-validated connection and its reader, which may
// hold bytes read past the handshake.
type peerConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// Node is a process's persistent listening endpoint: it owns the
// listener, validates every inbound handshake, parks data connections
// by (peer, epoch) until the matching attempt claims them, and hands
// control connections to the head's accept loop.
type Node struct {
	ln       net.Listener
	self     int
	planHash uint64

	// hsTimeout bounds how long an accepted connection may take to
	// present its Hello, in nanoseconds (atomic: Connect sets it to the
	// config's dial timeout, so both sides of the handshake honor the
	// same deadline, while the accept loop reads it).
	hsTimeout atomic.Int64

	// slots is the rendezvous of dialers and claims: a one-deep channel per
	// (peer, epoch), made by whichever side arrives first.
	mu    sync.Mutex
	slots map[key]chan peerConn

	// ctrl hands accepted control connections to AcceptControl, and
	// refused the refusals of control connections from another plan.
	// Unbuffered: each waits in its own handshake goroutine until the head
	// takes it or the Node closes, so none is ever queued out of reach.
	ctrl    chan *CtrlConn
	refused chan error

	ctx   context.Context // done once the Node is closed
	close context.CancelFunc
}

// NewNode listens on addr and starts the accept loop (NewNodeOn).
func NewNode(addr string, self int, planHash uint64) (*Node, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("tcp: listen %s: %w", addr, err)
	}
	return NewNodeOn(ln, self, planHash), nil
}

// NewNodeOn starts the accept loop on ln, which the Node closes on Close — a
// listener a parent handed down lets a respawned child keep its address.
func NewNodeOn(ln net.Listener, self int, planHash uint64) *Node {
	n := &Node{ln: ln, self: self, planHash: planHash,
		slots: make(map[key]chan peerConn), ctrl: make(chan *CtrlConn), refused: make(chan error)}
	n.ctx, n.close = context.WithCancel(context.Background())
	n.hsTimeout.Store(int64(dialTimeout(0)))
	go n.acceptLoop()
	return n
}

// Addr returns the bound listen address (useful with ":0" test configs).
func (n *Node) Addr() string { return n.ln.Addr().String() }

// Close shuts the listener, every parked connection and every control
// connection nobody accepted yet. Safe to call more than once.
func (n *Node) Close() error {
	n.mu.Lock()
	n.close()
	for k, ch := range n.slots {
		evict(ch)
		delete(n.slots, k)
	}
	n.mu.Unlock()
	return n.ln.Close()
}

// slot returns k's rendezvous channel; the caller holds n.mu.
func (n *Node) slot(k key) chan peerConn {
	ch, ok := n.slots[k]
	if !ok {
		ch = make(chan peerConn, 1)
		n.slots[k] = ch
	}
	return ch
}

// evict closes the connection parked in ch, if any.
func evict(ch chan peerConn) {
	select {
	case p := <-ch:
		p.conn.Close()
	default:
	}
}

func (n *Node) acceptLoop() {
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go n.handshake(conn)
	}
}

// handshake validates one inbound connection's Hello. Version skew is
// caught by the wire codec's header parse; a plan-hash mismatch is
// refused with an explicit Ack so the dialer fails loudly too, and a
// refused control connection is AcceptControl's error, so the head does
// not wait for a worker that can never join.
func (n *Node) handshake(conn net.Conn) {
	conn.SetReadDeadline(time.Now().Add(time.Duration(n.hsTimeout.Load())))
	br := bufio.NewReaderSize(conn, 1<<16)
	h, payload, err := readFrame(br)
	if err != nil || h.Kind != wire.KindHello || len(payload) < helloPayloadLen {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	purpose := payload[0]
	hash := binary.LittleEndian.Uint64(payload[1:])
	if hash != n.planHash {
		msg := fmt.Sprintf("plan hash %016x, want %016x", hash, n.planHash)
		writeAck(conn, n.self, int(h.From), 0, ackBadPlan, msg)
		conn.Close()
		if purpose == purposeCtrl {
			select {
			case n.refused <- fmt.Errorf("%w: control link from proc %d: %s", ErrHandshake, h.From, msg):
			case <-n.ctx.Done():
			}
		}
		return
	}
	p := peerConn{conn: conn, br: br}
	switch purpose {
	case purposeCtrl:
		if err := writeAck(conn, n.self, int(h.From), h.Epoch, ackOK, ""); err != nil {
			conn.Close()
			return
		}
		cc := newCtrlConn(p, n.self, int(h.From))
		select {
		case n.ctrl <- cc:
		case <-n.ctx.Done():
			cc.Close()
		}
	case purposeData:
		k := key{from: int(h.From), epoch: h.Epoch}
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.ctx.Err() != nil {
			conn.Close()
			return
		}
		// Sends happen only here, under mu and after the eviction, so the
		// one-deep slot always has room.
		ch := n.slot(k)
		evict(ch) // superseded by this redial
		ch <- p
	default:
		conn.Close()
	}
}

// claim waits for the inbound data connection from proc `from` for the
// given epoch, then sends the deferred Ack that releases the dialer.
// Parked connections from earlier epochs belong to dead attempts and
// stay parked until the Node closes (handshake parks by exact key, so
// they simply never match), as do the emptied slots — one channel per
// peer and attempt. A connection that arrives after claim gave up is
// parked like one that arrived before it was called.
func (n *Node) claim(ctx context.Context, from int, epoch int64) (peerConn, error) {
	k := key{from: from, epoch: epoch}
	n.mu.Lock()
	ch := n.slot(k)
	n.mu.Unlock()
	select {
	case p := <-ch:
		if err := writeAck(p.conn, n.self, from, epoch, ackOK, ""); err != nil {
			p.conn.Close()
			return peerConn{}, err
		}
		return p, nil
	case <-ctx.Done():
		return peerConn{}, fmt.Errorf("tcp: waiting for proc %d (epoch %d): %w", from, epoch, context.Cause(ctx))
	}
}

// AcceptControl returns the next inbound control connection (head use), or
// an error wrapping ErrHandshake that names a peer refused for its plan.
func (n *Node) AcceptControl(ctx context.Context) (*CtrlConn, error) {
	select {
	case cc := <-n.ctrl:
		return cc, nil
	case err := <-n.refused:
		return nil, err
	case <-ctx.Done():
		return nil, context.Cause(ctx)
	}
}

// dialPeer establishes one outbound connection with retry (the peer may
// not be listening yet) and runs the dialer side of the handshake. The
// Ack may be deferred arbitrarily long — until the peer reaches this
// epoch — so only ctx bounds the wait; timeout bounds each dial attempt.
func dialPeer(ctx context.Context, addr string, self, to int, epoch int64, planHash uint64, purpose byte, faults *FaultState, timeout time.Duration) (peerConn, error) {
	fail := func(conn net.Conn, err error) (peerConn, error) {
		if conn != nil {
			conn.Close()
		}
		return peerConn{}, err
	}
	if faults != nil && faults.plan.DialDelay > 0 {
		select {
		case <-time.After(faults.plan.DialDelay):
		case <-ctx.Done():
			return fail(nil, context.Cause(ctx))
		}
	}
	var conn net.Conn
	for backoff := 10 * time.Millisecond; ; {
		d := net.Dialer{Timeout: timeout}
		c, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			conn = c
			break
		}
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return fail(nil, fmt.Errorf("tcp: dialing proc %d at %s: %w", to, addr, context.Cause(ctx)))
		}
		if backoff < 500*time.Millisecond {
			backoff *= 2
		}
	}
	var payload [helloPayloadLen]byte
	payload[0] = purpose
	binary.LittleEndian.PutUint64(payload[1:], planHash)
	if _, err := conn.Write(smallFrame(wire.KindHello, self, to, epoch, 0, payload[:])); err != nil {
		return fail(conn, err)
	}
	// One blocking read for the ack, made cancellable by a single
	// deadline set if ctx ends first — a deadline that expired mid-frame
	// would lose the bytes already consumed, so none is set otherwise.
	br := bufio.NewReaderSize(conn, 1<<16)
	stop := context.AfterFunc(ctx, func() { conn.SetReadDeadline(time.Unix(1, 0)) })
	h, ack, err := readFrame(br)
	if !stop() {
		err = context.Cause(ctx)
	}
	switch {
	case err != nil:
		return fail(conn, fmt.Errorf("tcp: handshake with proc %d: %w", to, err))
	case h.Kind != wire.KindAck || len(ack) < 1:
		return fail(conn, fmt.Errorf("%w: proc %d sent kind %d instead of ack", ErrHandshake, to, h.Kind))
	case ack[0] != ackOK:
		return fail(conn, fmt.Errorf("%w by proc %d: %s", ErrHandshake, to, string(ack[1:])))
	}
	return peerConn{conn: conn, br: br}, nil
}

// Transport is one attempt's full mesh. It implements transport.Transport
// for the rank range its process hosts: the Mailbox's, with SendBatch
// routing remote destinations onto the peer's link.
type Transport struct {
	*transport.Mailbox

	cfg      Config
	epoch    int64
	rankProc []int   // global rank → proc index
	links    []*link // by peer proc; nil for this process

	stale atomic.Int64 // frames dropped by the transport-level epoch fence

	ctx   context.Context // the links'; done once the mesh is closed
	close context.CancelFunc
}

// Connect builds the attempt's mesh: this process dials every peer with
// a lower index and claims the inbound connection from every peer with
// a higher one, all concurrently, failing if the mesh is not complete
// within the dial timeout.
func Connect(ctx context.Context, n *Node, cfg Config, epoch int64) (*Transport, error) {
	timeout := dialTimeout(cfg.DialTimeout)
	n.hsTimeout.Store(int64(timeout))
	self := cfg.Self
	p := cfg.Procs[self]
	r := cfg.Procs[len(cfg.Procs)-1].Hi
	t := &Transport{
		cfg: cfg, epoch: epoch,
		rankProc: make([]int, r),
		links:    make([]*link, len(cfg.Procs)),
	}
	t.Mailbox = transport.NewMailbox(p.Lo, p.Hi, r)
	t.ctx, t.close = context.WithCancel(context.Background())
	for pi, pr := range cfg.Procs {
		for rk := pr.Lo; rk < pr.Hi; rk++ {
			t.rankProc[rk] = pi
		}
	}

	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	errs := make([]error, len(cfg.Procs))
	var peers []int
	var wg sync.WaitGroup
	for peer := range cfg.Procs {
		if peer == self {
			continue
		}
		peers = append(peers, peer)
		wg.Add(1)
		go func(peer int) {
			defer wg.Done()
			var pc peerConn
			if self > peer {
				pc, errs[peer] = dialPeer(ctx, cfg.Procs[peer].Addr, self, peer, epoch, cfg.PlanHash, purposeData, cfg.Faults, timeout)
			} else {
				pc, errs[peer] = n.claim(ctx, peer, epoch)
			}
			if errs[peer] == nil {
				t.links[peer] = &link{self: self, proc: peer, epoch: epoch, conn: pc.conn,
					faults: cfg.Faults, mon: t.Monitor, ctx: t.ctx}
				t.links[peer].start(pc.br, t.handle)
			}
		}(peer)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Close()
		return nil, err
	}
	watch(t.Monitor, cfg.HeartbeatInterval, cfg.HeartbeatDeadline, peers,
		func(peer int) *link { return t.links[peer] })
	return t, nil
}

// handle is the mesh links' frame handler: batches to the addressed
// rank's inbox (transport-level epoch fence first). Anything else is the
// link's death.
func (t *Transport) handle(h wire.Header, payload []byte) error {
	if h.Kind != wire.KindBatch {
		return fmt.Errorf("tcp: unexpected frame kind %d mid-run", h.Kind)
	}
	if h.Epoch != t.epoch {
		// A frame from another attempt — possible only through a
		// misrouted zombie connection, since links are epoch-scoped.
		// Drop it whole, loudly countable.
		t.stale.Add(1)
		return nil
	}
	if lo, hi := t.Local(); int(h.Dest) < lo || int(h.Dest) >= hi {
		return fmt.Errorf("tcp: frame for rank %d, local range [%d,%d)", h.Dest, lo, hi)
	}
	n := len(payload) / 16
	var edges []graph.Edge
	if t.cfg.Pool != nil {
		edges = t.cfg.Pool.Get(n)
	} else {
		edges = make([]graph.Edge, 0, n)
	}
	edges, err := wire.DecodeBatchPayload(edges, h, payload)
	b := transport.Batch{
		From: int(h.From), Dest: int(h.Dest),
		Epoch: h.Epoch, Tile: int(h.Tile),
		Edges: edges, EOF: h.EOF(),
	}
	if err == nil {
		err = t.Send(t.ctx, b, nil)
	}
	if err != nil && t.cfg.Pool != nil {
		t.cfg.Pool.Put(edges)
	}
	return err
}

// SendBatch implements Transport. Local destinations are the Mailbox's;
// remote ones serialize onto the peer link's writer queue, waiting for
// room with the sender's inline receive progress. A failed mesh refuses
// before encoding: the dead link's writer is gone, so its queue would
// still accept the frame and mask the failure until it filled.
func (t *Transport) SendBatch(ctx context.Context, b transport.Batch, progress func(transport.Batch)) error {
	l := t.links[t.rankProc[b.Dest]]
	if l == nil {
		return t.Send(ctx, b, progress)
	}
	if err := t.Err(); err != nil {
		return err
	}
	frame := wire.AppendBatch(framePool.Get().([]byte)[:0],
		uint32(b.From), uint32(b.Dest), b.Epoch, int64(b.Tile), b.Edges, b.EOF)
	if err := transport.Post(ctx, t.Monitor, l.outQ, frame, t.Inbox(b.From), progress); err != nil {
		return err
	}
	// The frame owns the bytes now, so the staging buffer goes back to the
	// pool for the next flush.
	if t.cfg.Pool != nil {
		t.cfg.Pool.Put(b.Edges)
	}
	return nil
}

// Close implements Transport: tears down every link, queued frames
// flushed first, and joins the link and liveness goroutines. Safe to call
// more than once.
func (t *Transport) Close() error {
	t.close()
	for _, l := range t.links {
		if l != nil {
			l.shut()
		}
	}
	t.Stop()
	return nil
}

// StaleFrames reports batch frames dropped by the transport-level epoch
// fence.
func (t *Transport) StaleFrames() int64 { return t.stale.Load() }
