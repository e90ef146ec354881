// Conformance suite: every Transport implementation is held to the same
// batch-path contract — per-link FIFO, inline receive progress, EOF drain,
// cancellation-cause propagation, epoch integrity and failure detection.
// The chan transport runs as
// one in-process fixture; the TCP transport runs as a 2-process mesh
// folded into this test process (two Nodes on loopback, two Transports,
// each hosting half the ranks).
package transport_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kronlab/internal/dist/transport"
	chantransport "kronlab/internal/dist/transport/chan"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/graph"
)

const confEpoch = int64(7)

// fixture is one implementation under test: the rank space [0, r) and
// the transport hosting each rank (the same one r times for chan, one
// per proc for tcp).
type fixture struct {
	name   string
	r      int
	byRank []transport.Transport
	// inject smuggles a batch into the destination's inbox, bypassing
	// the send path — for forging residue of another attempt.
	inject func(b transport.Batch)
}

func (f *fixture) tr(rank int) transport.Transport { return f.byRank[rank] }

// newFixtures builds a fresh fixture per implementation; fixtures are
// torn down via t.Cleanup. A fresh set per test keeps cancellation
// poison from leaking across tests.
func newFixtures(t *testing.T, r int) []*fixture {
	t.Helper()
	var fs []*fixture

	ch := chantransport.New(r)
	chf := &fixture{name: "chan", r: r, byRank: make([]transport.Transport, r)}
	for i := range chf.byRank {
		chf.byRank[i] = ch
	}
	chf.inject = ch.Inject
	fs = append(fs, chf)

	const nprocs = 2
	const hash = 0xfeedfacecafef00d
	nodes := make([]*tcp.Node, nprocs)
	addrs := make([]string, nprocs)
	for i := range nodes {
		n, err := tcp.NewNode("127.0.0.1:0", i, hash)
		if err != nil {
			t.Fatalf("node %d: %v", i, err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	procs := transport.SplitRanks(addrs, r)
	ts := make([]*tcp.Transport, nprocs)
	errs := make([]error, nprocs)
	var wg sync.WaitGroup
	for i := range ts {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ts[i], errs[i] = tcp.Connect(context.Background(), nodes[i],
				tcp.Config{Procs: procs, Self: i, PlanHash: hash}, confEpoch)
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
	tf := &fixture{name: "tcp", r: r, byRank: make([]transport.Transport, r)}
	for pi, p := range procs {
		for rk := p.Lo; rk < p.Hi; rk++ {
			tf.byRank[rk] = ts[pi]
		}
	}
	tf.inject = func(b transport.Batch) { ts[procForRank(procs, b.Dest)].Inject(b) }
	fs = append(fs, tf)

	return fs
}

func procForRank(procs []transport.Proc, rank int) int {
	for i, p := range procs {
		if rank >= p.Lo && rank < p.Hi {
			return i
		}
	}
	return -1
}

func nopProgress(transport.Batch) {}

// TestConformanceFIFO asserts per-link ordering: batches from rank 0 to
// the highest rank (a cross-process link in the tcp fixture) arrive in
// send order with their payloads intact.
func TestConformanceFIFO(t *testing.T) {
	const r, k = 4, 200
	for _, f := range newFixtures(t, r) {
		t.Run(f.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			dest := r - 1
			done := make(chan error, 1)
			go func() {
				for i := 0; i < k; i++ {
					b, err := f.tr(dest).Recv(ctx, dest)
					if err != nil {
						done <- err
						return
					}
					if b.Tile != i {
						done <- errorf("batch %d arrived with tile %d", i, b.Tile)
						return
					}
					if len(b.Edges) != 1 || b.Edges[0].U != int64(i) || b.Edges[0].V != int64(-i) {
						done <- errorf("batch %d payload corrupted: %v", i, b.Edges)
						return
					}
				}
				done <- nil
			}()
			for i := 0; i < k; i++ {
				b := transport.Batch{
					From: 0, Dest: dest, Epoch: confEpoch, Tile: i,
					Edges: []graph.Edge{{U: int64(i), V: int64(-i)}},
				}
				if err := f.tr(0).SendBatch(ctx, b, nopProgress); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
			}
			if err := <-done; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestConformanceEOFDrain runs the engine's teardown shape: every rank
// sends an EOF to every other rank, then drains until it has seen all
// r-1 — counting both blocking Recvs and batches handed back through
// the SendBatch progress callback, exactly as the exchange does.
func TestConformanceEOFDrain(t *testing.T) {
	const r = 4
	for _, f := range newFixtures(t, r) {
		t.Run(f.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			errs := make(chan error, r)
			for rk := 0; rk < r; rk++ {
				go func(rk int) {
					tr := f.tr(rk)
					seen := make(map[int]bool)
					prog := func(b transport.Batch) {
						if b.EOF {
							seen[b.From] = true
						}
					}
					for to := 0; to < r; to++ {
						if to == rk {
							continue
						}
						b := transport.Batch{From: rk, Dest: to, Epoch: confEpoch, EOF: true}
						if err := tr.SendBatch(ctx, b, prog); err != nil {
							errs <- err
							return
						}
					}
					for len(seen) < r-1 {
						b, err := tr.Recv(ctx, rk)
						if err != nil {
							errs <- err
							return
						}
						prog(b)
					}
					for from := 0; from < r; from++ {
						if from != rk && !seen[from] {
							errs <- errorf("rank %d never saw EOF from %d", rk, from)
							return
						}
					}
					errs <- nil
				}(rk)
			}
			for i := 0; i < r; i++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}

// TestConformanceCancellationCause asserts a blocked Recv and a blocked
// Barrier both return the run's cancellation *cause*, not a bare
// context.Canceled — the engine surfaces that cause as the run error.
func TestConformanceCancellationCause(t *testing.T) {
	const r = 4
	cause := errors.New("rank 2 exploded")
	for _, f := range newFixtures(t, r) {
		t.Run(f.name+"/recv", func(t *testing.T) {
			ctx, cancel := context.WithCancelCause(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := f.tr(1).Recv(ctx, 1)
				done <- err
			}()
			time.Sleep(10 * time.Millisecond)
			cancel(cause)
			if err := waitErr(t, done); !errors.Is(err, cause) {
				t.Fatalf("Recv returned %v, want %v", err, cause)
			}
		})
	}
}

// TestConformanceStaleEpoch sends a batch stamped with another attempt's
// epoch down a real link, then a valid sentinel on the same link. The
// contract: the stale batch is either dropped by the transport (tcp's
// wire-level fence) or delivered with its Epoch intact so the engine's
// receiver can fence it (chan) — never silently relabeled as current.
func TestConformanceStaleEpoch(t *testing.T) {
	const r = 4
	const staleEpoch = confEpoch + 99
	for _, f := range newFixtures(t, r) {
		t.Run(f.name, func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			dest := r - 1
			stale := transport.Batch{
				From: 0, Dest: dest, Epoch: staleEpoch, Tile: 1,
				Edges: []graph.Edge{{U: 666, V: 666}},
			}
			if err := f.tr(0).SendBatch(ctx, stale, nopProgress); err != nil {
				t.Fatalf("stale send: %v", err)
			}
			sentinel := transport.Batch{From: 0, Dest: dest, Epoch: confEpoch, Tile: 2}
			if err := f.tr(0).SendBatch(ctx, sentinel, nopProgress); err != nil {
				t.Fatalf("sentinel send: %v", err)
			}
			for {
				b, err := f.tr(dest).Recv(ctx, dest)
				if err != nil {
					t.Fatal(err)
				}
				if b.Tile == 2 {
					break // sentinel: FIFO means the stale batch's fate is sealed
				}
				if b.Epoch != staleEpoch {
					t.Fatalf("stale batch delivered with rewritten epoch %d", b.Epoch)
				}
			}
		})
	}
}

// TestConformanceInjectedResidue drains a batch smuggled directly into
// an inbox (the recovery suites forge stale residue this way) and
// asserts the Epoch survives verbatim.
func TestConformanceInjectedResidue(t *testing.T) {
	const r = 4
	for _, f := range newFixtures(t, r) {
		t.Run(f.name, func(t *testing.T) {
			f.inject(transport.Batch{From: 0, Dest: 1, Epoch: 3, Tile: 5})
			b, ok := f.tr(1).TryRecv(1)
			if !ok {
				t.Fatal("injected batch not delivered")
			}
			if b.Epoch != 3 || b.Tile != 5 {
				t.Fatalf("injected batch mangled: %+v", b)
			}
			if _, ok := f.tr(1).TryRecv(1); ok {
				t.Fatal("phantom batch after drain")
			}
		})
	}
}

// TestConformanceFailureDetection holds the tcp transport to the
// partition contract: a peer that goes silent with its links still open
// (a black-holed network partition — no RST, no FIN, nothing to trip
// on) must surface as a loud *transport.PeerError naming the silent
// peer within the armed failure-detection deadline, released through
// blocked Recvs and subsequent sends as transport.ErrHeartbeat, and a
// second rank parked in Recv is released with it. The tcp fixture uses
// real application heartbeats and a FaultState partition; the chan fixture
// arms its Mailbox's Monitor with a liveness loop that hears every rank but
// the one the test cuts off — the verdict, and everything it must release,
// is the same Monitor code on both.
func TestConformanceFailureDetection(t *testing.T) {
	const r = 4
	type impl struct {
		name string
		// build returns the observer's transport (hosting rank 0), the
		// rank/proc expected in the PeerError, and the partition trigger.
		build func(t *testing.T) (transport.Transport, int, func())
	}
	impls := []impl{
		{name: "chan", build: func(t *testing.T) (transport.Transport, int, func()) {
			const silent = 1
			ch := chantransport.New(r)
			t.Cleanup(func() { ch.Stop() })
			var cut atomic.Bool
			ranks, heard := make([]int, r), make([]int64, r) // heard: the liveness loop's alone
			for i := range ranks {
				ranks[i], heard[i] = i, time.Now().UnixNano()
			}
			ch.Watch(10*time.Millisecond, 80*time.Millisecond, ranks,
				func(rank int) {
					if rank != silent || !cut.Load() {
						heard[rank] = time.Now().UnixNano()
					}
				},
				func(rank int) int64 { return heard[rank] })
			return ch, silent, func() { cut.Store(true) }
		}},
		{name: "tcp", build: func(t *testing.T) (transport.Transport, int, func()) {
			const nprocs = 2
			const hash = 0xfeedfacecafef00d
			nodes := make([]*tcp.Node, nprocs)
			addrs := make([]string, nprocs)
			for i := range nodes {
				n, err := tcp.NewNode("127.0.0.1:0", i, hash)
				if err != nil {
					t.Fatalf("node %d: %v", i, err)
				}
				nodes[i] = n
				addrs[i] = n.Addr()
			}
			procs := transport.SplitRanks(addrs, r)
			fs := tcp.NewFaultState(transport.TCPFaults{})
			faults := map[int]*tcp.FaultState{1: fs}
			ts := make([]*tcp.Transport, nprocs)
			errs := make([]error, nprocs)
			var wg sync.WaitGroup
			for i := range ts {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					ts[i], errs[i] = tcp.Connect(context.Background(), nodes[i], tcp.Config{
						Procs: procs, Self: i, PlanHash: hash, Faults: faults[i],
						HeartbeatInterval: 20 * time.Millisecond,
						HeartbeatDeadline: 120 * time.Millisecond,
					}, confEpoch)
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
			return ts[0], 1, fs.Partition
		}},
	}
	for _, im := range impls {
		t.Run(im.name, func(t *testing.T) {
			tr, silent, partition := im.build(t)
			// As the engine does, the first failure a rank sees cancels
			// the run with that failure as the cause.
			ctx, cancel := context.WithCancelCause(context.Background())
			defer cancel(nil)
			ctx, stop := context.WithTimeout(ctx, 15*time.Second)
			defer stop()

			recvErr := make(chan error, 1)
			go func() {
				for {
					if _, err := tr.Recv(ctx, 0); err != nil {
						recvErr <- err
						cancel(err)
						return
					}
				}
			}()
			// A second local rank is parked in Recv for a batch the
			// partition will never let arrive.
			waiterErr := make(chan error, 1)
			go func() {
				_, err := tr.Recv(ctx, 1)
				waiterErr <- err
			}()
			start := time.Now()
			partition()
			var err error
			select {
			case err = <-recvErr:
			case <-time.After(10 * time.Second):
				t.Fatal("blocked Recv never observed the partition — an undetected black hole")
			}
			elapsed := time.Since(start)
			checkVerdict := func(who string, err error) {
				t.Helper()
				var pe *transport.PeerError
				if !errors.As(err, &pe) {
					t.Fatalf("%s error = %v, want *transport.PeerError", who, err)
				}
				if pe.Proc != silent {
					t.Fatalf("%s: PeerError names proc %d, want the partitioned peer %d", who, pe.Proc, silent)
				}
				if !errors.Is(err, transport.ErrHeartbeat) {
					t.Fatalf("%s error = %v, want the liveness verdict transport.ErrHeartbeat", who, err)
				}
			}
			checkVerdict("Recv", err)
			// The deadlines above are ≤120ms; allow generous scheduler
			// slop but insist detection is prompt, not eventual.
			if elapsed > 5*time.Second {
				t.Fatalf("partition surfaced after %v — far beyond the armed deadline", elapsed)
			}
			// The parked rank is released too — by the failure or by the
			// run's cancellation carrying it — never left parked.
			select {
			case err := <-waiterErr:
				checkVerdict("parked Recv", err)
			case <-time.After(5 * time.Second):
				t.Fatal("rank parked in Recv never returned after the verdict")
			}
			// The verdict must also poison later sends on the dead link.
			sctx, done := context.WithTimeout(context.Background(), 5*time.Second)
			defer done()
			b := transport.Batch{From: 0, Dest: r - 1, Epoch: confEpoch, Tile: 1,
				Edges: []graph.Edge{{U: 1, V: 2}}}
			if err := tr.SendBatch(sctx, b, nopProgress); err == nil {
				t.Fatal("SendBatch to the partitioned peer succeeded after the verdict")
			}
		})
	}
}

func waitErr(t *testing.T, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("blocked call never returned after cancellation")
		return nil
	}
}

func errorf(format string, args ...any) error { return fmt.Errorf(format, args...) }
