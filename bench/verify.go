package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/graph"
	"kronlab/internal/serve"
	"kronlab/internal/store"
)

// The verification pass runs each workload's configuration, untimed, on
// a product small enough to hold in memory, and compares what comes out
// with core.Chain.Arcs: in order where the output is a stream, as a
// sorted multiset where ranks deliver in any interleaving. The timed
// runs then only need their closed-form counts.

const maxVerifyArcs = 1 << 20

func oracle(ch *core.Chain) ([]graph.Edge, error) {
	n, err := ch.NumArcs()
	if err != nil {
		return nil, err
	}
	if n > maxVerifyArcs {
		return nil, fmt.Errorf("verification product has %d arcs, more than %d", n, maxVerifyArcs)
	}
	out := make([]graph.Edge, 0, n)
	ch.Arcs(func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	})
	return out, nil
}

func sortArcs(xs []graph.Edge) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].U != xs[j].U {
			return xs[i].U < xs[j].U
		}
		return xs[i].V < xs[j].V
	})
}

func sameOrder(what string, got, want []graph.Edge) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: %d arcs, oracle has %d", what, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("%s: arc %d is %v, oracle has %v", what, i, got[i], want[i])
		}
	}
	return nil
}

// sameMultiset sorts both sides (want is the oracle, already a private
// copy) and compares them position by position.
func sameMultiset(what string, got, want []graph.Edge) error {
	got = append([]graph.Edge(nil), got...)
	want = append([]graph.Edge(nil), want...)
	sortArcs(got)
	sortArcs(want)
	return sameOrder(what+" (sorted)", got, want)
}

// collectSink is a harness-owned dist.Sink that keeps every arc.
type collectSink struct {
	mu   sync.Mutex
	arcs []graph.Edge
}

func (s *collectSink) Rank(*dist.Rank) (dist.RankSink, error) { return &collectRank{s: s}, nil }

type collectRank struct {
	s   *collectSink
	buf []graph.Edge
}

func (c *collectRank) Store(e graph.Edge) error { c.buf = append(c.buf, e); return nil }
func (c *collectRank) StoreBlock(edges []graph.Edge) (int64, error) {
	c.buf = append(c.buf, edges...)
	return int64(len(edges)), nil
}
func (c *collectRank) Close() error {
	c.s.mu.Lock()
	c.s.arcs = append(c.s.arcs, c.buf...)
	c.s.mu.Unlock()
	return nil
}

func storeArcs(st *store.Store) ([]graph.Edge, error) {
	out := make([]graph.Edge, 0, st.TotalEdges())
	err := st.Iter(func(u, v int64) bool {
		out = append(out, graph.Edge{U: u, V: v})
		return true
	})
	return out, err
}

func decodeRecords(b []byte) ([]graph.Edge, error) {
	if len(b)%store.RecordSize != 0 {
		return nil, fmt.Errorf("binary body of %d bytes is not whole records", len(b))
	}
	out := make([]graph.Edge, 0, len(b)/store.RecordSize)
	for off := 0; off < len(b); off += store.RecordSize {
		u, v := store.GetRecord(b[off:])
		out = append(out, graph.Edge{U: u, V: v})
	}
	return out, nil
}

func ndjson(arcs []graph.Edge) []byte {
	var b bytes.Buffer
	for _, e := range arcs {
		fmt.Fprintf(&b, "{\"u\":%d,\"v\":%d}\n", e.U, e.V)
	}
	return b.Bytes()
}

// checkEngine: the engine run itself, into a collecting sink; with an
// owner, also the routed memory result of the library entry point, where
// every arc must sit on the rank that owns it.
func checkEngine(owner dist.OwnerFunc) func(context.Context, *env, *core.Chain) error {
	return func(ctx context.Context, e *env, ch *core.Chain) error {
		want, err := oracle(ch)
		if err != nil {
			return err
		}
		plan, err := dist.PlanChain1D(ch, e.ranks)
		if err != nil {
			return err
		}
		cfg := dist.Config{Plan: plan, Sink: &collectSink{}}
		if owner != nil {
			cfg.Owner = owner
		}
		if _, err := dist.Run(ctx, cfg); err != nil {
			return err
		}
		if err := sameMultiset("dist.Run", cfg.Sink.(*collectSink).arcs, want); err != nil {
			return err
		}
		if owner == nil {
			return nil
		}
		res, err := dist.GenerateChain(ch, e.ranks, owner, false)
		if err != nil {
			return err
		}
		var got []graph.Edge
		for rank, arcs := range res.PerRank {
			for _, a := range arcs {
				if o := owner(a.U, a.V, e.ranks); o != rank {
					return fmt.Errorf("dist.GenerateChain: arc %v stored on rank %d, owner is %d", a, rank, o)
				}
			}
			got = append(got, arcs...)
		}
		return sameMultiset("dist.GenerateChain", got, want)
	}
}

// checkTCP: both processes write their ranks' shards into one store
// directory; the head finalizes it and the contents are compared.
func checkTCP(ctx context.Context, e *env, ch *core.Chain) error {
	want, err := oracle(ch)
	if err != nil {
		return err
	}
	pe := *e
	pe.storeDir = filepath.Join(e.scratch, "verify-tcp-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(pe.storeDir)
	inst, err := setupTCP(ctx, &pe, ch)
	if err != nil {
		return err
	}
	in := inst.(*tcpInst)
	defer in.close()
	st, _, err := dist.GenerateChainClusterToStore(ctx, ch, pe.storeDir, false, in.cc, dist.Recovery{})
	if _, err := in.join(err); err != nil {
		return err
	}
	got, err := storeArcs(st)
	if err != nil {
		return err
	}
	return sameMultiset("two-process store", got, want)
}

func checkStore(_ context.Context, e *env, ch *core.Chain) error {
	want, err := oracle(ch)
	if err != nil {
		return err
	}
	dir := filepath.Join(e.scratch, "verify-store-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	st, _, err := dist.GenerateChainToStore(ch, e.ranks, dir, false)
	if err != nil {
		return err
	}
	got, err := storeArcs(st)
	if err != nil {
		return err
	}
	return sameMultiset("store read-back", got, want)
}

// checkHTTPStream: the stream under the server and the binary route, in
// order; then one unaligned byte range and one resume-token round trip,
// byte for byte against the whole body.
func checkHTTPStream(ctx context.Context, e *env, ch *core.Chain) error {
	want, err := oracle(ch)
	if err != nil {
		return err
	}
	var got []graph.Edge
	if _, err := dist.StreamChainFrom(ctx, ch, e.ranks, false, 0, 0, -1, dist.Recovery{}, func(b []graph.Edge) error {
		got = append(got, b...)
		return nil
	}); err != nil {
		return err
	}
	if err := sameOrder("dist.StreamChainFrom", got, want); err != nil {
		return err
	}

	in, err := startHTTP(ctx, e, ch, serve.Config{GenRetries: -1}, 0)
	if err != nil {
		return err
	}
	defer in.close()
	q := "format=binary&ranks=" + strconv.Itoa(e.ranks)
	var whole bytes.Buffer
	r, err := in.get(ctx, q, nil, &whole)
	if err == nil {
		err = r.complete(http.StatusOK, int64(len(want)))
	}
	if err != nil {
		return fmt.Errorf("/gen binary: %w", err)
	}
	if got, err = decodeRecords(whole.Bytes()); err != nil {
		return err
	}
	if err := sameOrder("/gen binary", got, want); err != nil {
		return err
	}

	// A range that starts and ends inside records.
	lo, hi := int64(whole.Len()/3+5), int64(2*whole.Len()/3+9)
	var part bytes.Buffer
	r, err = in.get(ctx, q, http.Header{"Range": {fmt.Sprintf("bytes=%d-%d", lo, hi)}}, &part)
	if err != nil {
		return fmt.Errorf("/gen Range: %w", err)
	}
	if r.status != http.StatusPartialContent || !bytes.Equal(part.Bytes(), whole.Bytes()[lo:hi+1]) {
		return fmt.Errorf("/gen Range bytes=%d-%d: status %d, %d bytes, not the same bytes as the whole body", lo, hi, r.status, part.Len())
	}

	// Cut a stream short, then continue it from its own token.
	cut := int64(len(want) / 2)
	var head, rest bytes.Buffer
	r, err = in.get(ctx, q+"&limit="+strconv.FormatInt(cut, 10), nil, &head)
	if err == nil {
		err = r.complete(http.StatusOK, cut)
	}
	if err != nil {
		return fmt.Errorf("/gen limit: %w", err)
	}
	token := r.trailer.Get("X-Kronlab-Resume-Token")
	r, err = in.get(ctx, q+"&resume="+token, nil, &rest)
	if err == nil {
		err = r.complete(http.StatusOK, int64(len(want))-cut)
	}
	if err != nil {
		return fmt.Errorf("/gen resume=%s: %w", token, err)
	}
	if !bytes.Equal(append(head.Bytes(), rest.Bytes()...), whole.Bytes()) {
		return fmt.Errorf("/gen resume: cut stream plus resumed stream differ from the whole body")
	}
	return nil
}

// checkHTTPPages: the default (ndjson, supervised) route, whole and as
// one page from the middle, text-exact.
func checkHTTPPages(ctx context.Context, e *env, ch *core.Chain) error {
	want, err := oracle(ch)
	if err != nil {
		return err
	}
	in, err := startHTTP(ctx, e, ch, serve.Config{}, 0)
	if err != nil {
		return err
	}
	defer in.close()
	var body bytes.Buffer
	r, err := in.get(ctx, "ranks=1", nil, &body)
	if err == nil {
		err = r.complete(http.StatusOK, int64(len(want)))
	}
	if err != nil {
		return fmt.Errorf("/gen ndjson: %w", err)
	}
	if !bytes.Equal(body.Bytes(), ndjson(want)) {
		return fmt.Errorf("/gen ndjson: body differs from the oracle's arcs")
	}
	off := len(want) / 3
	body.Reset()
	r, err = in.get(ctx, fmt.Sprintf("ranks=1&offset=%d&limit=%d", off, pageArcs), nil, &body)
	if err == nil {
		err = r.complete(http.StatusOK, pageArcs)
	}
	if err != nil {
		return fmt.Errorf("/gen page: %w", err)
	}
	if !bytes.Equal(body.Bytes(), ndjson(want[off:off+pageArcs])) {
		return fmt.Errorf("/gen page at offset %d differs from the oracle's arcs", off)
	}
	return nil
}
