package tcp

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/wire"
	"kronlab/internal/graph"
)

const testHash = 0x6b726f6e6c616221

// mesh builds an n-proc loopback cluster inside the test process, with
// an optional fault schedule per proc.
func mesh(t *testing.T, r, nprocs int, epoch int64, faults map[int]*FaultState) []*Transport {
	return meshHB(t, r, nprocs, epoch, faults, 0, 0)
}

// meshHB is mesh with application heartbeats armed at the given
// interval/deadline (zero interval disables them, as in Config).
func meshHB(t *testing.T, r, nprocs int, epoch int64, faults map[int]*FaultState, hbInterval, hbDeadline time.Duration) []*Transport {
	t.Helper()
	nodes := make([]*Node, nprocs)
	addrs := make([]string, nprocs)
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0", i, testHash)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	procs := transport.SplitRanks(addrs, r)
	ts := make([]*Transport, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = Connect(context.Background(), nodes[i],
				Config{Procs: procs, Self: i, PlanHash: testHash, Faults: faults[i],
					HeartbeatInterval: hbInterval, HeartbeatDeadline: hbDeadline}, epoch)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("connect proc %d: %v", i, err)
		}
	}
	t.Cleanup(func() {
		for _, tr := range ts {
			tr.Close()
		}
		for _, n := range nodes {
			n.Close()
		}
	})
	return ts
}

// TestHandshakePlanHashRefused asserts a dialer with a different plan
// hash is refused loudly, with the acceptor's expectation in the error.
func TestHandshakePlanHashRefused(t *testing.T) {
	n0, err := NewNode("127.0.0.1:0", 0, testHash)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNode("127.0.0.1:0", 1, testHash+1)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	procs := []transport.Proc{{Addr: n0.Addr(), Lo: 0, Hi: 2}, {Addr: n1.Addr(), Lo: 2, Hi: 4}}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_, err = Connect(ctx, n1, Config{Procs: procs, Self: 1, PlanHash: testHash + 1}, 0)
	if !errors.Is(err, ErrHandshake) {
		t.Fatalf("Connect with mismatched plan hash returned %v, want %v", err, ErrHandshake)
	}
}

// TestHandshakeEpochParking asserts a dialer one epoch ahead is parked
// (not refused) until the acceptor's process reaches that attempt —
// the respawn/recovery rendezvous.
func TestHandshakeEpochParking(t *testing.T) {
	n0, err := NewNode("127.0.0.1:0", 0, testHash)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	n1, err := NewNode("127.0.0.1:0", 1, testHash)
	if err != nil {
		t.Fatal(err)
	}
	defer n1.Close()
	procs := []transport.Proc{{Addr: n0.Addr(), Lo: 0, Hi: 1}, {Addr: n1.Addr(), Lo: 1, Hi: 2}}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type res struct {
		tr  *Transport
		err error
	}
	dialed := make(chan res, 1)
	go func() {
		tr, err := Connect(ctx, n1, Config{Procs: procs, Self: 1, PlanHash: testHash}, 5)
		dialed <- res{tr, err}
	}()
	// The dialer must still be parked: proc 0 has not entered epoch 5.
	select {
	case r := <-dialed:
		t.Fatalf("dialer released before acceptor reached the epoch: %v %v", r.tr, r.err)
	case <-time.After(200 * time.Millisecond):
	}
	t0, err := Connect(ctx, n0, Config{Procs: procs, Self: 0, PlanHash: testHash}, 5)
	if err != nil {
		t.Fatalf("acceptor connect: %v", err)
	}
	defer t0.Close()
	r := <-dialed
	if r.err != nil {
		t.Fatalf("parked dialer failed: %v", r.err)
	}
	defer r.tr.Close()
}

// sendUntilError pushes batches from rank `from` to rank `dest` until
// the transport reports a failure, returning the error and the number
// of successful sends.
func sendUntilError(ctx context.Context, tr *Transport, from, dest int, epoch int64) (int, error) {
	for i := 0; ; i++ {
		b := transport.Batch{
			From: from, Dest: dest, Epoch: epoch, Tile: i,
			Edges: []graph.Edge{{U: int64(i), V: int64(i)}},
		}
		if err := tr.SendBatch(ctx, b, func(transport.Batch) {}); err != nil {
			return i, err
		}
		if i > 10000 {
			return i, nil
		}
	}
}

// TestFaultConnectionReset arms ResetAfterFrames and asserts both ends
// of the link surface a PeerError naming the right proc.
func TestFaultConnectionReset(t *testing.T) {
	faults := map[int]*FaultState{1: NewFaultState(transport.TCPFaults{ResetAfterFrames: 3})}
	ts := mesh(t, 2, 2, 1, faults)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	recvErr := make(chan error, 1)
	go func() {
		for {
			if _, err := ts[0].Recv(ctx, 0); err != nil {
				recvErr <- err
				return
			}
		}
	}()
	_, sendErr := sendUntilError(ctx, ts[1], 1, 0, 1)
	var pe *transport.PeerError
	if !errors.As(sendErr, &pe) || pe.Proc != 0 {
		t.Fatalf("sender error = %v, want PeerError{Proc: 0}", sendErr)
	}
	select {
	case err := <-recvErr:
		if !errors.As(err, &pe) || pe.Proc != 1 {
			t.Fatalf("receiver error = %v, want PeerError{Proc: 1}", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("receiver never observed the reset")
	}
}

// TestFaultPartialWrite arms PartialWriteFrame and asserts the torn
// frame is rejected by the peer's decoder — a loud link death, never a
// misparsed batch.
func TestFaultPartialWrite(t *testing.T) {
	faults := map[int]*FaultState{1: NewFaultState(transport.TCPFaults{PartialWriteFrame: 2})}
	ts := mesh(t, 2, 2, 1, faults)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	type recvRes struct {
		n   int
		err error
	}
	recvCh := make(chan recvRes, 1)
	go func() {
		n := 0
		for {
			b, err := ts[0].Recv(ctx, 0)
			if err != nil {
				recvCh <- recvRes{n, err}
				return
			}
			if len(b.Edges) != 1 || b.Edges[0].U != int64(b.Tile) {
				recvCh <- recvRes{n, errors.New("torn frame decoded as a batch")}
				return
			}
			n++
		}
	}()
	if _, err := sendUntilError(ctx, ts[1], 1, 0, 1); err == nil {
		t.Fatal("sender never observed the partial-write death")
	}
	r := <-recvCh
	var pe *transport.PeerError
	if !errors.As(r.err, &pe) {
		t.Fatalf("receiver error = %v, want PeerError", r.err)
	}
	if r.n >= 2 {
		t.Fatalf("receiver decoded %d whole batches out of a stream torn at frame 2", r.n)
	}
}

// TestStaleFrameFence asserts the wire-level epoch fence: a batch frame
// stamped with another epoch is dropped at the receiving reader and
// counted, never delivered.
func TestStaleFrameFence(t *testing.T) {
	ts := mesh(t, 2, 2, 4, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	stale := transport.Batch{From: 1, Dest: 0, Epoch: 3, Tile: 9,
		Edges: []graph.Edge{{U: 1, V: 1}}}
	if err := ts[1].SendBatch(ctx, stale, func(transport.Batch) {}); err != nil {
		t.Fatal(err)
	}
	sentinel := transport.Batch{From: 1, Dest: 0, Epoch: 4, Tile: 10}
	if err := ts[1].SendBatch(ctx, sentinel, func(transport.Batch) {}); err != nil {
		t.Fatal(err)
	}
	b, err := ts[0].Recv(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Tile != 10 {
		t.Fatalf("received tile %d; stale batch leaked through the fence", b.Tile)
	}
	if n := ts[0].StaleFrames(); n != 1 {
		t.Fatalf("StaleFrames = %d, want 1", n)
	}
}

// TestDialDelayFault asserts the DialDelay fault actually delays mesh
// establishment (a slow peer coming up).
func TestDialDelayFault(t *testing.T) {
	start := time.Now()
	faults := map[int]*FaultState{1: NewFaultState(transport.TCPFaults{DialDelay: 150 * time.Millisecond})}
	mesh(t, 2, 2, 1, faults)
	if d := time.Since(start); d < 150*time.Millisecond {
		t.Fatalf("mesh up in %v despite a 150ms dial delay", d)
	}
}

// TestHeartbeatIdleLinkStaysAlive pins the liveness half of the
// heartbeat contract: an armed but completely idle mesh must NOT be
// declared dead — the pings themselves are the traffic that proves the
// peer alive. (The detection half is the partition suite below.)
func TestHeartbeatIdleLinkStaysAlive(t *testing.T) {
	ts := meshHB(t, 2, 2, 1, nil, 20*time.Millisecond, 100*time.Millisecond)
	time.Sleep(400 * time.Millisecond) // many deadlines' worth of idle
	for i, tr := range ts {
		if err := tr.Err(); err != nil {
			t.Fatalf("idle heartbeated proc %d failed: %v", i, err)
		}
	}
	// The link must still carry traffic.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	b := transport.Batch{From: 1, Dest: 0, Epoch: 1, Tile: 3,
		Edges: []graph.Edge{{U: 7, V: 8}}}
	if err := ts[1].SendBatch(ctx, b, func(transport.Batch) {}); err != nil {
		t.Fatalf("send after idle: %v", err)
	}
	got, err := ts[0].Recv(ctx, 0)
	if err != nil {
		t.Fatalf("recv after idle: %v", err)
	}
	if got.Tile != 3 {
		t.Fatalf("got tile %d, want 3", got.Tile)
	}
}

// TestPartitionSoakTCP is the partition soak: repeatedly build a
// heartbeated mesh, black-hole one side mid-traffic at a varying frame
// count (sockets stay open — no RST, no FIN), and require BOTH sides to
// surface a PeerError naming the other proc. Run under -race, the soak
// also shakes the heartbeat/partition state machine for data races.
func TestPartitionSoakTCP(t *testing.T) {
	const rounds = 6
	for round := 0; round < rounds; round++ {
		round := round
		t.Run(fmt.Sprintf("round%d", round), func(t *testing.T) {
			faults := map[int]*FaultState{
				1: NewFaultState(transport.TCPFaults{PartitionAfterFrames: int64(2 + round)}),
			}
			ts := meshHB(t, 2, 2, 1, faults, 10*time.Millisecond, 60*time.Millisecond)
			ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
			defer cancel()

			recvErr := make(chan error, 1)
			go func() {
				for {
					if _, err := ts[0].Recv(ctx, 0); err != nil {
						recvErr <- err
						return
					}
				}
			}()
			sendErr := make(chan error, 1)
			go func() {
				for i := 0; ; i++ {
					b := transport.Batch{From: 1, Dest: 0, Epoch: 1, Tile: i,
						Edges: []graph.Edge{{U: int64(i), V: int64(i)}}}
					if err := ts[1].SendBatch(ctx, b, func(transport.Batch) {}); err != nil {
						sendErr <- err
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			var pe *transport.PeerError
			select {
			case err := <-recvErr:
				if !errors.As(err, &pe) || pe.Proc != 1 {
					t.Fatalf("observer error = %v, want PeerError{Proc: 1}", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("observer never detected the partition")
			}
			select {
			case err := <-sendErr:
				if !errors.As(err, &pe) || pe.Proc != 0 {
					t.Fatalf("partitioned side error = %v, want PeerError{Proc: 0}", err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("partitioned side never detected its own isolation")
			}
			if n := ts[0].HeartbeatMisses(); n == 0 {
				t.Fatal("observer counted no heartbeat misses across a detected partition")
			}
		})
	}
}

// TestControlConn round-trips JSON over a control link in both
// directions, the channel cluster supervision runs on.
func TestControlConn(t *testing.T) {
	n0, err := NewNode("127.0.0.1:0", 0, testHash)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	type msg struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	done := make(chan error, 1)
	go func() {
		cc, err := DialControl(ctx, n0.Addr(), 2, testHash, 0)
		if err != nil {
			done <- err
			return
		}
		defer cc.Close()
		if err := cc.Send(msg{Kind: "report", N: 41}); err != nil {
			done <- err
			return
		}
		var reply msg
		if err := cc.Recv(ctx, &reply); err != nil {
			done <- err
			return
		}
		if reply.Kind != "begin" || reply.N != 42 {
			done <- errors.New("reply mangled")
			return
		}
		done <- nil
	}()
	cc, err := n0.AcceptControl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	if cc.Peer != 2 {
		t.Fatalf("control peer = %d, want 2", cc.Peer)
	}
	var m msg
	if err := cc.Recv(ctx, &m); err != nil {
		t.Fatal(err)
	}
	if m.Kind != "report" || m.N != 41 {
		t.Fatalf("control message mangled: %+v", m)
	}
	if err := cc.Send(msg{Kind: "begin", N: 42}); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestControlConnSlowWriter writes one control frame in two pieces with a
// pause between them longer than any read deadline the link could be
// polling with: the reader must deliver the whole message, not lose the
// bytes it had already consumed when the pause began.
func TestControlConnSlowWriter(t *testing.T) {
	n0, err := NewNode("127.0.0.1:0", 0, testHash)
	if err != nil {
		t.Fatal(err)
	}
	defer n0.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	// A hand-rolled worker: Hello, Ack, then the torn write.
	conn, err := net.Dial("tcp", n0.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	hello := append([]byte{purposeCtrl}, binary.LittleEndian.AppendUint64(nil, testHash)...)
	if _, err := conn.Write(smallFrame(wire.KindHello, 1, 0, -1, 0, hello)); err != nil {
		t.Fatal(err)
	}
	if h, ack, err := readFrame(bufio.NewReader(conn)); err != nil || h.Kind != wire.KindAck || ack[0] != ackOK {
		t.Fatalf("handshake: kind %d ack %v err %v", h.Kind, ack, err)
	}
	frame := smallFrame(wire.KindControl, 1, 0, 0, 0, []byte(`{"kind":"report","n":41}`))
	go func() {
		conn.Write(frame[:wire.HeaderSize+5])
		time.Sleep(400 * time.Millisecond)
		conn.Write(frame[wire.HeaderSize+5:])
	}()

	cc, err := n0.AcceptControl(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer cc.Close()
	var m struct {
		Kind string `json:"kind"`
		N    int    `json:"n"`
	}
	if err := cc.Recv(ctx, &m); err != nil {
		t.Fatalf("Recv across a slow write: %v", err)
	}
	if m.Kind != "report" || m.N != 41 {
		t.Fatalf("control message mangled by a slow write: %+v", m)
	}
}

// TestControlConnsClosedWithNode joins control connections nobody
// accepts, then closes the Node: every one of them, each waiting in its
// handshake for an AcceptControl that never comes, must be closed, which
// its dialer sees as the link's death.
func TestControlConnsClosedWithNode(t *testing.T) {
	n0, err := NewNode("127.0.0.1:0", 0, testHash)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	ccs := make([]*CtrlConn, 4)
	for i := range ccs {
		if ccs[i], err = DialControl(ctx, n0.Addr(), i+1, testHash, 0); err != nil {
			t.Fatalf("dial %d: %v", i, err)
		}
		defer ccs[i].Close()
	}
	n0.Close()
	for i, cc := range ccs {
		var m struct{}
		var pe *transport.PeerError
		if err := cc.Recv(ctx, &m); !errors.As(err, &pe) {
			t.Fatalf("control conn %d after Node.Close: Recv = %v, want the link's death", i, err)
		}
	}
}

// TestFaultShortCollectiveFrame puts a frame of kind 3 — the retired
// teardown collective's reduce — with a 4-byte payload on a live link: the
// receiving process must fail the link with a PeerError naming the sender,
// not panic decoding it or let it pass.
func TestFaultShortCollectiveFrame(t *testing.T) {
	ts := mesh(t, 2, 2, 1, nil)
	l := ts[1].links[0]
	l.outQ <- l.frame(3, 0, []byte{1, 2, 3, 4})
	select {
	case <-ts[0].Dead():
	case <-time.After(5 * time.Second):
		t.Fatal("a frame of the retired kind 3 never failed the link")
	}
	var pe *transport.PeerError
	if err := ts[0].Err(); !errors.As(err, &pe) || pe.Proc != 1 {
		t.Fatalf("mesh failure = %v, want PeerError{Proc: 1}", err)
	}
}

// TestCloseFlushesQueuedBatchFrames sends a short burst and closes at
// once, many times over, so that some Close lands while the writer is
// inside a flush with frames queued behind it: every batch accepted
// before Close must reach the peer ahead of the link's death.
func TestCloseFlushesQueuedBatchFrames(t *testing.T) {
	const rounds, k = 300, 12
	nodes := make([]*Node, 2)
	addrs := make([]string, 2)
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0", i, testHash)
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		nodes[i], addrs[i] = n, n.Addr()
	}
	procs := transport.SplitRanks(addrs, 2)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	edges := make([]graph.Edge, 1024)
	for round := 0; round < rounds; round++ {
		var ts [2]*Transport
		var errs [2]error
		var wg sync.WaitGroup
		for i := range ts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ts[i], errs[i] = Connect(ctx, nodes[i], Config{Procs: procs, Self: i, PlanHash: testHash}, int64(round))
			}(i)
		}
		wg.Wait()
		if errs[0] != nil || errs[1] != nil {
			t.Fatalf("round %d connect: %v, %v", round, errs[0], errs[1])
		}
		for i := 0; i < k; i++ {
			b := transport.Batch{From: 1, Dest: 0, Epoch: int64(round), Tile: i, Edges: edges}
			if err := ts[1].SendBatch(ctx, b, func(transport.Batch) {}); err != nil {
				t.Fatalf("round %d send %d: %v", round, i, err)
			}
		}
		ts[1].Close()
		for i := 0; i < k; i++ {
			if b, err := ts[0].Recv(ctx, 0); err != nil || b.Tile != i {
				t.Fatalf("round %d: batch %d of %d accepted before Close: got tile %d, err %v", round, i, k, b.Tile, err)
			}
		}
		ts[0].Close()
	}
}
