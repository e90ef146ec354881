package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/serve"
	"kronlab/internal/store"
)

// The traced run climbs one ladder on one chain, LAD, so that rows
// subtract: each row adds one layer to the row below and the difference
// is that layer's tax in wall ns per arc. Beside the ladder sit probes of
// single calls (seek, plan, connect, append …) and three ratios the
// roadmap asks about. Everything is measured from this package: spans
// wrap the calls into each layer and are kept in memory until the end.

const ladderDeadline = 150 * time.Second

// ladderReport is what the ladder child hands back: per-layer metric
// values by name.
type ladderReport struct {
	Values map[string]float64 `json:"values"`
	Ops    int                `json:"ops"`
	Failed int                `json:"failed"`
	Errs   []string           `json:"errs,omitempty"`
}

func ladderScales(size string) []int {
	if size == sizeTiny {
		return []int{4, 4}
	}
	return []int{9, 8}
}

// smallScales is the product of the memory-sink ratio probes: a quarter
// of LAD, because both sides hold every arc in memory.
func smallScales(size string) []int {
	if size == sizeTiny {
		return []int{3, 3}
	}
	return []int{8, 7}
}

// ndjsonWindow is how much of LAD the ndjson row downloads. At about
// 5 M arcs/s the whole product would take 8 s per repetition; the
// per-arc cost does not depend on the position in the stream.
const ndjsonWindow = 1 << 22

var ladderRows = []string{"core", "engine", "exchange", "memory", "store", "tcp", "stream", "http_bin", "http_ndjson"}

// perLayer is every metric a traced run prints, in print order.
var perLayer = func() []metricDef {
	var ms []metricDef
	for _, row := range ladderRows {
		ms = append(ms,
			metricDef{"ladder." + row + ".ns_per_edge", "ns"},
			metricDef{"ladder." + row + ".cpu_ns_per_edge", "ns"},
			metricDef{"ladder." + row + ".allocs_per_medge", "count"},
			metricDef{"ladder." + row + ".spread_pct", "%"})
		switch row {
		case "store", "tcp", "http_bin", "http_ndjson":
			ms = append(ms, metricDef{"ladder." + row + ".bytes_per_edge", "B"})
		}
	}
	for _, t := range []string{"engine", "exchange", "memory", "store", "tcp", "stream", "http_bin", "http_ndjson"} {
		ms = append(ms, metricDef{"tax." + t, "ns"})
	}
	return append(ms, []metricDef{
		{"core.tailcursor_k2_ns_per_edge", "ns"}, {"core.tailcursor_k3_ns_per_edge", "ns"},
		{"core.seek_us", "us"}, {"core.oracle_ns_per_edge", "ns"},
		{"gen.rmat_ms", "ms"}, {"graph.arcslice_ms", "ms"}, {"core.newchain_us", "us"},
		{"engine.plan_us", "us"}, {"engine.slice_us", "us"}, {"serve.register_ms", "ms"}, {"tcp.connect_ms", "ms"},
		{"engine.speedup_rmax", "ratio"},
		{"exchange.messages", "count"}, {"exchange.bytes_sent", "B"}, {"exchange.edges_routed", "count"},
		{"exchange.routed_share", "ratio"}, {"exchange.max_inbox_depth", "count"}, {"exchange.load_skew", "ratio"},
		{"exchange.r16_over_rmax", "ratio"}, {"exchange.twod_over_oned", "ratio"}, {"exchange.owned_over_routed", "ratio"},
		{"chan.ns_per_edge", "ns"}, {"tcp.ns_per_edge", "ns"}, {"tcp.bytes_per_edge", "B"},
		{"wire.encode_ns_per_edge", "ns"}, {"wire.decode_ns_per_edge", "ns"},
		{"sinks.count_ns_per_edge", "ns"}, {"sinks.memory_ns_per_edge", "ns"}, {"sinks.store_ns_per_edge", "ns"},
		{"sinks.block_fill", "ratio"},
		{"store.append_ns_per_edge", "ns"}, {"store.bytes_per_edge", "B"}, {"store.close_ms", "ms"},
		{"store.open_ms", "ms"}, {"store.read_ns_per_edge", "ns"},
		{"stream.speedup_rmax", "ratio"}, {"stream.supervised_over_plain", "ratio"},
		{"stream.first_batch_us", "us"}, {"stream.seek_first_batch_us", "us"},
		{"http_pages.req_p50_ms", "ms"}, {"http_pages.req_p95_ms", "ms"},
		{"serve.ttfb_p50_ms", "ms"}, {"serve.ttfb_p95_ms", "ms"}, {"serve.bytes_per_edge_ndjson", "B"},
		{"serve.handler_s", "s"}, {"serve.refused", "count"},
		{"trace.overhead_pct", "%"},
		{"probe.supervised_stream_r2_ok", "count"},
	}...)
}()

type ladder struct {
	ctx  context.Context
	h    *harness
	o    *options
	e    *env // ranks = Rmax, scales = LAD
	tr   *tracer
	root int64
	rng  *rand.Rand

	ch   *core.Chain // LAD
	arcs int64

	rep  ladderReport
	rows map[string]float64 // median wall ns/arc of every timed row, by name
}

func (l *ladder) set(name string, v float64) { l.rep.Values[name] = v }

// try counts one operation and records its failure, if any.
func (l *ladder) try(what string, err error) bool {
	l.rep.Ops++
	if err != nil {
		l.rep.Failed++
		l.rep.Errs = append(l.rep.Errs, what+": "+err.Error())
	}
	return err == nil
}

// minReps and minTimed say how long a row is repeated: at least three
// times, and until half a second has been timed (ten times at most), so
// that the rows of a few tens of milliseconds get a steadier median.
const (
	minReps  = 3
	maxReps  = 10
	minTimed = 500 * time.Millisecond
)

// timeRow repeats f, which times its own region and returns it, and
// reduces the repetitions to per-arc medians under the given name. Each
// repetition is one span; f receives its ID to parent its own spans.
func (l *ladder) timeRow(name string, f func(span int64) (opResult, error)) (ns, cpu, allocs summary) {
	var nsS, cpuS, allocS []float64
	var timed time.Duration
	for i := 0; i < maxReps && l.ctx.Err() == nil; i++ {
		if i >= minReps && timed >= minTimed || l.o.size == sizeTiny && i >= 1 {
			break
		}
		runtime.GC() // the last repetition's garbage is not this one's cost
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		id := l.tr.open(l.root, name)
		res, err := f(id)
		l.tr.close(id, map[string]float64{"arcs": float64(res.arcs), "timed_ns": float64(res.wall.Nanoseconds())})
		runtime.ReadMemStats(&m1)
		if !l.try(name, err) || res.arcs == 0 {
			continue
		}
		if res.peer != nil {
			res.cpu += time.Duration(res.peer.CPUSec * float64(time.Second))
		}
		timed += res.wall
		n := float64(res.arcs)
		nsS = append(nsS, float64(res.wall.Nanoseconds())/n)
		cpuS = append(cpuS, float64(res.cpu.Nanoseconds())/n)
		allocS = append(allocS, float64(m1.Mallocs-m0.Mallocs)/n*1e6)
	}
	ns, cpu, allocs = summarize(nsS), summarize(cpuS), summarize(allocS)
	l.rows[name] = ns.Median
	return
}

// ladderRow is timeRow for one of the nine rungs: it publishes the four
// figures every rung has.
func (l *ladder) ladderRow(row string, f func(span int64) (opResult, error)) {
	ns, cpu, allocs := l.timeRow("ladder."+row, f)
	l.set("ladder."+row+".ns_per_edge", ns.Median)
	l.set("ladder."+row+".cpu_ns_per_edge", cpu.Median)
	l.set("ladder."+row+".allocs_per_medge", allocs.Median)
	l.set("ladder."+row+".spread_pct", 100*ns.spread())
}

// sample times f n times and returns the median duration.
func sample(n int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
	}
	return time.Duration(median(ds)), nil
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func runLadder(ctx context.Context, h *harness, o *options) ladderReport {
	e := h.env(o)
	l := &ladder{ctx: ctx, h: h, o: o, e: e,
		tr:   newTracer(fmt.Sprintf("kronbench-seed%d-%d", o.seed, time.Now().UnixNano())),
		rng:  rand.New(rand.NewSource(o.seed)),
		rep:  ladderReport{Values: map[string]float64{}},
		rows: map[string]float64{}}
	l.root = l.tr.open(0, "ladder")
	probe := l.startBlockerProbe()

	if !l.setupProbes() {
		return l.rep // no LAD, nothing to climb
	}
	l.coreRows()
	l.engineRows()
	l.sinkRows()
	l.tcpRow()
	l.streamRows()
	l.httpRows()
	l.taxes()
	l.transportProbes()
	l.storeProbes()
	l.smallProbes()
	l.pageProbe()
	l.set("probe.supervised_stream_r2_ok", <-probe)

	l.tr.close(l.root, nil)
	l.try("writing spans", l.tr.flush(o.traceOut))
	return l.rep
}

// --- set-up probes -------------------------------------------------------

// setupProbes times the calls that make up set-up on LAD's own inputs
// and leaves LAD built.
func (l *ladder) setupProbes() bool {
	scales := ladderScales(l.o.size)
	params := gen.Graph500Params(scales[0], l.o.seed)
	d, err := sample(5, func() error { _, err := gen.RMAT(params); return err })
	if !l.try("gen.RMAT", err) {
		return false
	}
	l.set("gen.rmat_ms", ms(d))
	// ArcSlice is built once per graph, so each sample needs a fresh one.
	var slices []float64
	for i := 0; i < 5; i++ {
		fresh, err := gen.RMAT(params)
		if !l.try("gen.RMAT", err) {
			return false
		}
		t0 := time.Now()
		fresh.ArcSlice()
		slices = append(slices, float64(time.Since(t0)))
	}
	l.set("graph.arcslice_ms", ms(time.Duration(median(slices))))

	if l.ch, err = l.e.chain(scales); !l.try("LAD", err) {
		return false
	}
	if l.arcs, err = l.ch.NumArcs(); !l.try("LAD", err) {
		return false
	}
	d, err = sample(100, func() error { _, err := core.NewChain(l.ch.Factors()...); return err })
	l.try("core.NewChain", err)
	l.set("core.newchain_us", us(d))

	var plan dist.Plan
	d, err = sample(20, func() (err error) {
		if plan, err = dist.PlanChain1D(l.ch, l.e.ranks); err == nil {
			dist.PlanHash(plan)
		}
		return
	})
	l.try("dist.PlanChain1D", err)
	l.set("engine.plan_us", us(d))
	d, err = sample(100, func() error {
		_, err := plan.Slice(l.rng.Int63n(l.arcs-pageArcs+1), pageArcs)
		return err
	})
	l.try("Plan.Slice", err)
	l.set("engine.slice_us", us(d))
	return true
}

// --- core ----------------------------------------------------------------

const kernelBlock = 1024 // arcs of scratch the kernel rows expand into

func (l *ladder) coreRows() {
	head, tail := l.ch.Head().ArcSlice(), l.ch.Tail()[0]
	bArcs, nB := tail.ArcSlice(), tail.NumVertices()
	scratch := make([]graph.Edge, 0, kernelBlock)
	count := func(n int64, want int64) error {
		if n != want {
			return fmt.Errorf("expanded %d arcs, closed form says %d", n, want)
		}
		return nil
	}

	l.ladderRow("core", func(int64) (opResult, error) {
		var n int64
		sw := startWatch()
		for _, a := range head {
			for lo := 0; lo < len(bArcs); lo += kernelBlock {
				hi := min(lo+kernelBlock, len(bArcs))
				n += int64(len(core.ExpandBlock(a, bArcs[lo:hi], nB, scratch[:0])))
			}
		}
		return sw.stop(n), count(n, l.arcs)
	})

	// The same product through the cursor the k>=3 path uses.
	cursorRow := func(name string, head []graph.Edge, tail []*graph.Graph) {
		tc := core.NewTailCursor(tail)
		nT, want := tc.NumVertices(), int64(len(head))*tc.Total()
		ns, _, _ := l.timeRow(name, func(int64) (opResult, error) {
			var n int64
			sw := startWatch()
			for _, a := range head {
				tc.Reset()
				for {
					out := tc.ExpandNext(a.U*nT, a.V*nT, scratch[:0], kernelBlock)
					if len(out) == 0 {
						break
					}
					n += int64(len(out))
				}
			}
			return sw.stop(n), count(n, want)
		})
		l.set(name, ns.Median)
	}
	cursorRow("core.tailcursor_k2_ns_per_edge", head, l.ch.Tail())
	// expand_k3's chain, cut to as many head arcs as give about LAD's size.
	k3e := *l.e
	if k3, err := k3e.chain(findWorkload("expand_k3").scales(l.o.size)); l.try("k3 chain", err) {
		perHead := core.NewTailCursor(k3.Tail()).Total()
		h3 := k3.Head().ArcSlice()
		cursorRow("core.tailcursor_k3_ns_per_edge", h3[:min(int64(len(h3)), max(1, l.arcs/perHead))], k3.Tail())
	}

	ns, _, _ := l.timeRow("core.oracle_ns_per_edge", func(int64) (opResult, error) {
		var n int64
		sw := startWatch()
		l.ch.Arcs(func(u, v int64) bool { n++; return true })
		return sw.stop(n), count(n, l.arcs)
	})
	l.set("core.oracle_ns_per_edge", ns.Median)

	d, err := sample(1000, func() error {
		_, err := l.ch.ArcsFrom(l.rng.Int63n(l.arcs), func(u, v int64) bool { return false })
		return err
	})
	l.try("Chain.ArcsFrom", err)
	l.set("core.seek_us", us(d))
}

// --- engine and exchange ---------------------------------------------------

// decoratedRun runs ch through the routed engine into inner with the
// timing decorator in between, and returns what the decorator saw.
func (l *ladder) decoratedRun(span int64, ch *core.Chain, inner dist.Sink) (opResult, sinkAgg, error) {
	plan, err := dist.PlanChain1D(ch, l.e.ranks)
	if err != nil {
		return opResult{}, sinkAgg{}, err
	}
	ts := newTimedSink(inner, l.tr, span)
	sw := startWatch()
	st, err := dist.Run(l.ctx, dist.Config{Plan: plan, Owner: dist.OwnerBySource, Sink: ts})
	res := sw.stop(st.EdgesGenerated)
	agg := ts.total()
	if err == nil {
		want, _ := ch.NumArcs()
		err = checkStats(st, agg.arcs, want)
	}
	return res, agg, err
}

func (l *ladder) plan(r int, twoD bool) dist.Plan {
	plan, err := dist.PlanChain1D(l.ch, r)
	if twoD {
		plan, err = dist.PlanChain2D(l.ch, r)
	}
	l.try("planning", err)
	return plan
}

func (l *ladder) engineRows() {
	rmaxPlan, onePlan := l.plan(l.e.ranks, false), l.plan(1, false)
	plain := func(plan dist.Plan, owner dist.Owner) func(int64) (opResult, error) {
		in := &engineInst{plan: plan, owner: owner, arcs: l.arcs}
		return func(int64) (opResult, error) { return in.run(l.ctx) }
	}
	l.ladderRow("engine", plain(rmaxPlan, nil))
	l.timeRow("engine.r1", plain(onePlan, nil))
	l.set("engine.speedup_rmax", l.rows["engine.r1"]/l.rows["ladder.engine"])

	var st dist.Stats
	exchange := plain(rmaxPlan, dist.OwnerBySource)
	l.ladderRow("exchange", func(span int64) (opResult, error) {
		res, err := exchange(span)
		st = res.stats
		return res, err
	})
	l.set("exchange.messages", float64(st.Messages))
	l.set("exchange.bytes_sent", float64(st.BytesSent))
	l.set("exchange.edges_routed", float64(st.EdgesRouted))
	l.set("exchange.routed_share", float64(st.EdgesRouted)/float64(max(1, st.EdgesGenerated)))
	l.set("exchange.max_inbox_depth", float64(st.MaxInboxDepth))
	l.set("exchange.load_skew", float64(st.MaxStored())*float64(len(st.PerRankStored))/float64(max(1, sum(st.PerRankStored))))

	// The same row with the decorators on: what the count sink costs, how
	// full its blocks are, and what tracing itself costs.
	var agg sinkAgg
	l.timeRow("exchange.decorated", func(span int64) (res opResult, err error) {
		res, agg, err = l.decoratedRun(span, l.ch, &dist.CountSink{})
		return
	})
	l.set("sinks.count_ns_per_edge", float64(agg.busy.Nanoseconds())/float64(max(1, agg.arcs)))
	l.set("sinks.block_fill", float64(agg.arcs)/float64(max(1, agg.calls))/dist.DefaultBatchSize)
	l.set("trace.overhead_pct", 100*(l.rows["exchange.decorated"]-l.rows["ladder.exchange"])/l.rows["ladder.exchange"])

	l.timeRow("exchange.r16", plain(l.plan(16, false), dist.OwnerBySource))
	l.set("exchange.r16_over_rmax", l.rows["exchange.r16"]/l.rows["ladder.exchange"])
	l.timeRow("exchange.r4_1d", plain(l.plan(4, false), dist.OwnerBySource))
	l.timeRow("exchange.r4_2d", plain(l.plan(4, true), dist.OwnerBySource))
	l.set("exchange.twod_over_oned", l.rows["exchange.r4_2d"]/l.rows["exchange.r4_1d"])
}

// --- memory and store sinks --------------------------------------------------

func (l *ladder) sinkRows() {
	l.ladderRow("memory", func(int64) (opResult, error) {
		sw := startWatch()
		res, err := dist.GenerateChain(l.ch, l.e.ranks, nil, false)
		out := sw.stop(l.arcs)
		if err == nil {
			err = checkStats(res.Stats, res.TotalStored(), l.arcs)
		}
		return out, err
	})

	var bytes int64
	l.ladderRow("store", func(int64) (opResult, error) {
		inst, err := setupStore(l.ctx, l.e, l.ch)
		if err != nil {
			return opResult{}, err
		}
		defer inst.close()
		res, err := inst.run(l.ctx)
		bytes = shardBytes(inst.(*storeInst).dir)
		return res, err
	})
	l.set("ladder.store.bytes_per_edge", float64(bytes)/float64(l.arcs))

	// Once more with the timing decorator between the engine and the sink.
	dir := filepath.Join(l.e.scratch, "ladder-store-"+strconv.Itoa(os.Getpid()))
	defer os.RemoveAll(dir)
	ss := dist.NewStoreSink(dir, l.e.ranks)
	l.decoratedSink("sinks.store_ns_per_edge", l.ch, ss, func() error { _, err := ss.Finalize(l.ch.NumVertices()); return err })
}

// decoratedSink publishes under name the time per arc the timing
// decorator saw inside inner's store calls; after, if set, finishes the
// sink once the run is over.
func (l *ladder) decoratedSink(name string, ch *core.Chain, inner dist.Sink, after func() error) {
	id := l.tr.open(l.root, name)
	_, agg, err := l.decoratedRun(id, ch, inner)
	if err == nil && after != nil {
		err = after()
	}
	l.tr.close(id, nil)
	l.try(name, err)
	l.set(name, float64(agg.busy.Nanoseconds())/float64(max(1, agg.arcs)))
}

// --- two processes over TCP --------------------------------------------------

func (l *ladder) tcpRow() {
	var st dist.Stats
	l.ladderRow("tcp", func(int64) (opResult, error) {
		inst, err := setupTCP(l.ctx, l.e, l.ch)
		if err != nil {
			return opResult{}, err
		}
		defer inst.close()
		res, err := inst.run(l.ctx)
		st = res.stats
		return res, err
	})
	// Computed, not captured: the engine accounts 16 bytes per routed arc.
	l.set("ladder.tcp.bytes_per_edge", float64(st.BytesSent)/float64(l.arcs))
}

// --- stream --------------------------------------------------------------------

func (l *ladder) streamRun(r int, rec dist.Recovery, offset, limit int64) (opResult, *timedEmit, error) {
	te := &timedEmit{}
	sw := startWatch()
	te.start = sw.t0
	_, err := dist.StreamChainFrom(l.ctx, l.ch, r, false, 0, offset, limit, rec, te.emit)
	return sw.stop(te.arcs), te, err
}

func (l *ladder) streamRows() {
	var firsts []float64
	whole := func(r int, rec dist.Recovery) func(int64) (opResult, error) {
		return func(int64) (opResult, error) {
			res, te, err := l.streamRun(r, rec, 0, -1)
			if err == nil && te.arcs != l.arcs {
				err = fmt.Errorf("stream delivered %d arcs, closed form says %d", te.arcs, l.arcs)
			}
			firsts = append(firsts, float64(te.first))
			return res, err
		}
	}
	l.ladderRow("stream", whole(l.e.ranks, dist.Recovery{}))
	l.set("stream.first_batch_us", us(time.Duration(median(firsts))))
	l.timeRow("stream.r1", whole(1, dist.Recovery{}))
	l.set("stream.speedup_rmax", l.rows["stream.r1"]/l.rows["ladder.stream"])
	// One rank only: supervised streams with two or more ranks hang today.
	l.timeRow("stream.r1_supervised", whole(1, dist.Recovery{MaxRetries: 1}))
	l.set("stream.supervised_over_plain", l.rows["stream.r1_supervised"]/l.rows["stream.r1"])

	firsts = firsts[:0]
	for i := 0; i < 20; i++ {
		_, te, err := l.streamRun(1, dist.Recovery{}, l.rng.Int63n(l.arcs-pageArcs+1), pageArcs)
		if l.try("stream seek", err) {
			firsts = append(firsts, float64(te.first))
		}
	}
	l.set("stream.seek_first_batch_us", us(time.Duration(median(firsts))))
}

// --- HTTP ------------------------------------------------------------------------

var genSecondsRE = regexp.MustCompile(`(?m)^kronserve_request_seconds_sum\{route="gen"\} (\S+)`)

// scrape reads one counter from the server's /metrics.
func (in *httpInst) scrape(ctx context.Context, re *regexp.Regexp) (float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+"/metrics", nil)
	if err != nil {
		return 0, err
	}
	resp, err := in.client.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := re.FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("/metrics has no %s", re)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

func (l *ladder) httpRows() {
	in, err := startHTTP(l.ctx, l.e, l.ch, serve.Config{GenRetries: -1}, 0)
	if !l.try("starting server", err) {
		return
	}
	defer in.close()
	var reg []float64
	for _, d := range in.registered {
		reg = append(reg, float64(d))
	}
	l.set("serve.register_ms", ms(time.Duration(median(reg))))

	refused := 0
	get := func(span int64, query string, arcs int64) (opResult, reply, error) {
		sw := startWatch()
		r, err := in.get(l.ctx, query, nil, io.Discard)
		res := sw.stop(arcs)
		l.tr.add(span, "http.ttfb", sw.t0, sw.t0.Add(r.ttfb), nil)
		if r.status == http.StatusTooManyRequests || r.status == http.StatusServiceUnavailable {
			refused++
		}
		if err == nil {
			err = r.complete(http.StatusOK, arcs)
		}
		return res, r, err
	}

	handler0, err := in.scrape(l.ctx, genSecondsRE)
	l.try("/metrics", err)
	var binBytes int64
	l.ladderRow("http_bin", func(span int64) (opResult, error) {
		res, r, err := get(span, "format=binary&ranks="+strconv.Itoa(l.e.ranks), l.arcs)
		binBytes = r.n
		if err == nil && r.n != l.arcs*store.RecordSize {
			err = fmt.Errorf("body is %d bytes, closed form says %d", r.n, l.arcs*store.RecordSize)
		}
		return res, err
	})
	handler1, err := in.scrape(l.ctx, genSecondsRE)
	l.try("/metrics", err)
	// Handler-side seconds of the binary row's requests; the client-side
	// wall of the same requests is that row's ns_per_edge times its arcs.
	l.set("serve.handler_s", handler1-handler0)
	l.set("ladder.http_bin.bytes_per_edge", float64(binBytes)/float64(l.arcs))

	window := min(l.arcs, ndjsonWindow)
	var ndjsonBytes int64
	l.ladderRow("http_ndjson", func(span int64) (opResult, error) {
		res, r, err := get(span, "ranks=1&limit="+strconv.FormatInt(window, 10), window)
		ndjsonBytes = r.n
		return res, err
	})
	l.set("ladder.http_ndjson.bytes_per_edge", float64(ndjsonBytes)/float64(window))
	l.set("serve.bytes_per_edge_ndjson", float64(ndjsonBytes)/float64(window))

	l.set("serve.refused", float64(refused))
}

// pageProbe replays a fifth of http_pages with a span per request, for
// the latency of a page and its time to first byte.
func (l *ladder) pageProbe() {
	pe := *l.e
	ch, err := pe.chain(findWorkload("http_pages").scales(l.o.size))
	if !l.try("pages chain", err) {
		return
	}
	pages := pageRequests / 5
	if l.o.size == sizeTiny {
		pages = 20
	}
	in, err := startHTTP(l.ctx, &pe, ch, serve.Config{}, pages)
	if !l.try("starting page server", err) {
		return
	}
	defer in.close()
	id := l.tr.open(l.root, "http_pages")
	var ttfb []float64
	res, err := in.runPages(l.ctx, func(r reply) {
		end := time.Now()
		req := l.tr.add(id, "http.request", end.Add(-r.total), end, map[string]float64{"bytes": float64(r.n)})
		l.tr.add(req, "http.ttfb", end.Add(-r.total), end.Add(-r.total+r.ttfb), nil)
		ttfb = append(ttfb, ms(r.ttfb))
	})
	l.tr.close(id, map[string]float64{"arcs": float64(res.arcs)})
	l.rep.Ops += len(res.lat) - 1
	l.rep.Failed += res.failed
	if l.try("http_pages", err) {
		lat := make([]float64, len(res.lat))
		for i, d := range res.lat {
			lat[i] = ms(d)
		}
		l.set("http_pages.req_p50_ms", median(lat))
		l.set("http_pages.req_p95_ms", percentile(lat, 95))
		l.set("serve.ttfb_p50_ms", median(ttfb))
		l.set("serve.ttfb_p95_ms", percentile(ttfb, 95))
	}
}

// --- taxes -----------------------------------------------------------------------

// taxes are differences of rows at equal rank count, in wall ns per arc.
func (l *ladder) taxes() {
	row := func(name string) float64 { return l.rows[name] }
	l.set("tax.engine", row("engine.r1")-row("ladder.core"))
	l.set("tax.exchange", row("ladder.exchange")-row("ladder.engine"))
	for _, r := range []string{"memory", "store", "tcp"} {
		l.set("tax."+r, row("ladder."+r)-row("ladder.exchange"))
	}
	l.set("tax.stream", row("ladder.stream")-row("ladder.engine"))
	l.set("tax.http_bin", row("ladder.http_bin")-row("ladder.stream"))
	l.set("tax.http_ndjson", row("ladder.http_ndjson")-row("stream.r1"))
}

// --- ratios ------------------------------------------------------------------------

// smallProbes holds what keeps every arc in memory more than once and so
// runs on a quarter of LAD: the roadmap's owned-versus-routed question,
// and the memory sink under the timing decorator.
func (l *ladder) smallProbes() {
	se := *l.e
	ch, err := se.chain(smallScales(l.o.size))
	if !l.try("small chain", err) {
		return
	}
	arcs, err := ch.NumArcs()
	if !l.try("small chain", err) {
		return
	}
	a, b := ch.Factors()[0], ch.Factors()[1]
	memRow := func(name string, f func() (*dist.Result, error)) {
		l.timeRow(name, func(int64) (opResult, error) {
			sw := startWatch()
			res, err := f()
			out := sw.stop(arcs)
			if err == nil && res.TotalStored() != arcs {
				err = fmt.Errorf("stored %d arcs, closed form says %d", res.TotalStored(), arcs)
			}
			return out, err
		})
	}
	memRow("exchange.owned", func() (*dist.Result, error) { return dist.GenerateOwned(a, b, se.ranks) })
	memRow("exchange.routed_block", func() (*dist.Result, error) {
		return dist.GenerateChain(ch, se.ranks, dist.OwnerByBlock(ch.NumVertices()), false)
	})
	l.set("exchange.owned_over_routed", l.rows["exchange.owned"]/l.rows["exchange.routed_block"])

	// Size the memory sink exactly, as dist.GenerateChain does, from the
	// per-rank loads a counting run reports.
	plan, err := dist.PlanChain1D(ch, se.ranks)
	if !l.try("planning", err) {
		return
	}
	st, err := dist.Run(l.ctx, dist.Config{Plan: plan, Owner: dist.OwnerBySource, Sink: &dist.CountSink{}})
	if !l.try("counting run", err) {
		return
	}
	mem := dist.NewMemorySink(se.ranks)
	mem.Hints = st.PerRankStored
	l.decoratedSink("sinks.memory_ns_per_edge", ch, mem, nil)
}

// --- the roadmap's Blocker ------------------------------------------------------------

// startBlockerProbe runs a tiny supervised two-rank stream in a child of
// its own under a five-second deadline, beside the ladder: a hung child
// uses no CPU. 1 means it completed, 0 that it hung or failed, -1 that
// it was not run (the smoke test must not exercise that path).
func (l *ladder) startBlockerProbe() <-chan float64 {
	out := make(chan float64, 1)
	if l.h.inProcess {
		out <- -1
		return out
	}
	go func() {
		const deadline = 5 * time.Second
		ctx, cancel := context.WithTimeout(l.ctx, deadline)
		defer cancel()
		cmd := l.h.command(ctx, childArgs(childProbe, l.e, deadline))
		if cmd.Run() == nil {
			out <- 1
		} else {
			out <- 0
		}
	}()
	return out
}

// supervisedStreamProbe is the body of that child: the roadmap's
// reproduction, a tile that is not a multiple of the batch size.
func supervisedStreamProbe(ctx context.Context) error {
	ch, err := core.NewChain(gen.ER(20, 0.5, 1), gen.ER(20, 0.5, 2))
	if err != nil {
		return err
	}
	want, err := ch.NumArcs()
	if err != nil {
		return err
	}
	var got int64
	_, err = dist.StreamChainFrom(ctx, ch, 2, false, 1024, 0, -1, dist.Recovery{MaxRetries: 1},
		func(b []graph.Edge) error { got += int64(len(b)); return nil })
	if err == nil && got != want {
		err = fmt.Errorf("streamed %d arcs, want %d", got, want)
	}
	return err
}
