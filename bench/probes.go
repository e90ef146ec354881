package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"kronlab/internal/dist/transport"
	chantransport "kronlab/internal/dist/transport/chan"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/dist/transport/wire"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// Probes of single layers below the engine: batches driven through the
// public Transport interface between two ranks, the wire codec, and the
// shard writer and reader on their own.

const (
	probeBatch  = 1024    // arcs per transport batch, the engine's default
	probeArcs   = 1 << 24 // arcs moved by each transport and codec probe
	appendBlock = 4096    // arcs per ShardWriter.AppendBlock, the store sink's block
	appendArcs  = 1 << 22 // arcs written by the store probe (64 MiB)
)

func (l *ladder) probeSize(full int64) int64 {
	if l.o.size == sizeTiny {
		return full >> 10
	}
	return full
}

func fillBatch(b []graph.Edge) []graph.Edge {
	for i := range b {
		b[i] = graph.Edge{U: int64(i), V: int64(i) * 7}
	}
	return b
}

// chanPool is a transport.BufferPool backed by a channel.
type chanPool chan []graph.Edge

func (p chanPool) Get(n int) []graph.Edge {
	select {
	case b := <-p:
		return b[:0]
	default:
		return make([]graph.Edge, 0, n)
	}
}

func (p chanPool) Put(b []graph.Edge) {
	select {
	case p <- b:
	default:
	}
}

// pump sends batches from rank 0 of tx to rank 1 of rx and times the
// whole transfer. next supplies a full send buffer, done takes back a
// received one.
func pump(ctx context.Context, tx, rx transport.Transport, epoch int64, batches int64,
	next func() []graph.Edge, done func([]graph.Edge)) (opResult, error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var wg sync.WaitGroup
	var recvErr error
	var got int64
	sw := startWatch()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := int64(0); i < batches; i++ {
			b, err := rx.Recv(ctx, 1)
			if err != nil {
				recvErr = err
				cancel()
				return
			}
			got += int64(len(b.Edges))
			done(b.Edges)
		}
	}()
	var sendErr error
	for i := int64(0); i < batches && sendErr == nil; i++ {
		sendErr = tx.SendBatch(ctx, transport.Batch{From: 0, Dest: 1, Epoch: epoch, Edges: next()}, func(transport.Batch) {})
	}
	if sendErr != nil {
		cancel()
	}
	wg.Wait()
	res := sw.stop(got)
	switch {
	case sendErr != nil:
		return res, sendErr
	case recvErr != nil:
		return res, recvErr
	case got != batches*probeBatch:
		return res, fmt.Errorf("received %d arcs, sent %d", got, batches*probeBatch)
	}
	return res, nil
}

func (l *ladder) transportProbes() {
	batches := l.probeSize(probeArcs) / probeBatch

	// In process the receiver gets the sender's very slice, so buffers
	// circulate: more of them than the inbox can hold.
	ns, _, _ := l.timeRow("chan.ns_per_edge", func(int64) (opResult, error) {
		tr := chantransport.New(2)
		defer tr.Close()
		free := make(chan []graph.Edge, 64)
		for i := 0; i < cap(free); i++ {
			free <- fillBatch(make([]graph.Edge, probeBatch))
		}
		return pump(l.ctx, tr, tr, 0, batches,
			func() []graph.Edge { return <-free },
			func(b []graph.Edge) { free <- b })
	})
	l.set("chan.ns_per_edge", ns.Median)

	var connects []float64
	ns, _, _ = l.timeRow("tcp.ns_per_edge", func(int64) (opResult, error) {
		const hash, epoch = 0x6b726f6e62656e63, 1
		var nodes [2]*tcp.Node
		var addrs []string
		for i := range nodes {
			n, err := tcp.NewNode("127.0.0.1:0", i, hash)
			if err != nil {
				return opResult{}, err
			}
			defer n.Close()
			nodes[i] = n
			addrs = append(addrs, n.Addr())
		}
		procs := transport.SplitRanks(addrs, 2)
		var ts [2]*tcp.Transport
		var errs [2]error
		pools := [2]chanPool{make(chanPool, 64), make(chanPool, 64)}
		var wg sync.WaitGroup
		t0 := time.Now()
		for i := range ts {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				ts[i], errs[i] = tcp.Connect(l.ctx, nodes[i], tcp.Config{Procs: procs, Self: i, PlanHash: hash, Pool: pools[i]}, epoch)
			}(i)
		}
		wg.Wait()
		connects = append(connects, float64(time.Since(t0)))
		for i, err := range errs {
			if ts[i] != nil {
				defer ts[i].Close()
			}
			if err != nil {
				return opResult{}, err
			}
		}
		// The wire transport serializes a sent buffer and returns it to the
		// sender's pool; received buffers come from the receiver's.
		return pump(l.ctx, ts[0], ts[1], epoch, batches,
			func() []graph.Edge { return pools[0].Get(probeBatch)[:probeBatch] }, // contents do not matter
			pools[1].Put)
	})
	l.set("tcp.ns_per_edge", ns.Median)
	l.set("tcp.connect_ms", ms(time.Duration(median(connects))))

	batch := fillBatch(make([]graph.Edge, probeBatch))
	var frame []byte
	ns, _, _ = l.timeRow("wire.encode_ns_per_edge", func(int64) (opResult, error) {
		sw := startWatch()
		for i := int64(0); i < batches; i++ {
			frame = wire.AppendBatch(frame[:0], 0, 1, 1, 0, batch, false)
		}
		return sw.stop(batches * probeBatch), nil
	})
	l.set("wire.encode_ns_per_edge", ns.Median)
	// The frame the codec produced is what the tcp transport writes to the
	// socket for a batch; the harness cannot see the socket itself.
	l.set("tcp.bytes_per_edge", float64(len(frame))/probeBatch)
	dst := make([]graph.Edge, 0, probeBatch)
	ns, _, _ = l.timeRow("wire.decode_ns_per_edge", func(int64) (opResult, error) {
		sw := startWatch()
		for i := int64(0); i < batches; i++ {
			_, out, _, err := wire.DecodeBatch(dst[:0], frame)
			if err != nil || len(out) != probeBatch {
				return opResult{}, fmt.Errorf("decoded %d arcs: %v", len(out), err)
			}
		}
		return sw.stop(batches * probeBatch), nil
	})
	l.set("wire.decode_ns_per_edge", ns.Median)
}

// shardBytes is the size on disk of a store's shard files.
func shardBytes(dir string) int64 {
	var n int64
	names, _ := filepath.Glob(filepath.Join(dir, "shard-*"))
	for _, name := range names {
		if fi, err := os.Stat(name); err == nil {
			n += fi.Size()
		}
	}
	return n
}

// storeProbes drives one shard by hand: append in the sink's block size,
// close, write the manifest, open, read back.
func (l *ladder) storeProbes() {
	dir := filepath.Join(l.e.scratch, "ladder-shard-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	blocks := l.probeSize(appendArcs) / appendBlock
	arcs := blocks * appendBlock
	block := fillBatch(make([]graph.Edge, appendBlock))
	var closes []float64
	ns, _, _ := l.timeRow("store.append_ns_per_edge", func(int64) (opResult, error) {
		sw, err := store.NewShardWriter(dir, 0)
		if err != nil {
			return opResult{}, err
		}
		w := startWatch()
		for i := int64(0); i < blocks && err == nil; i++ {
			err = sw.AppendBlock(block)
		}
		res := w.stop(arcs)
		t0 := time.Now()
		if cerr := sw.Close(); err == nil {
			err = cerr
		}
		closes = append(closes, float64(time.Since(t0)))
		return res, err
	})
	l.set("store.append_ns_per_edge", ns.Median)
	l.set("store.close_ms", ms(time.Duration(median(closes))))
	l.set("store.bytes_per_edge", float64(shardBytes(dir))/float64(arcs))
	if !l.try("store.WriteManifest", store.WriteManifest(dir, 1<<30, []int64{arcs})) {
		return
	}
	var st *store.Store
	d, err := sample(20, func() (err error) { st, err = store.Open(dir); return })
	if !l.try("store.Open", err) {
		return
	}
	l.set("store.open_ms", ms(d))
	ns, _, _ = l.timeRow("store.read_ns_per_edge", func(int64) (opResult, error) {
		var n int64
		sw := startWatch()
		err := st.Iter(func(u, v int64) bool { n++; return true })
		if err == nil && n != arcs {
			err = fmt.Errorf("read %d arcs, wrote %d", n, arcs)
		}
		return sw.stop(n), err
	})
	l.set("store.read_ns_per_edge", ns.Median)
}
