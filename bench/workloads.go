package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/dist/transport"
	"kronlab/internal/dist/transport/tcp"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/serve"
	"kronlab/internal/store"
)

// workload names one set of inputs and the single call that is timed on
// it. Scales are Graph500 R-MAT scales; factor i is generated from
// seed+i. The full sizes are fixed: results are only comparable across
// commits while they stay as they are.
type workload struct {
	name string
	why  string
	full []int // R-MAT scales of the timed product
	tiny []int // smoke test
	// verify is a product of at most 2^20 arcs with the same shape, small
	// enough to hold and sort, on which outputs are checked arc by arc.
	verify []int
	// reps counted repetitions make a run of the declared length
	// (repetitions scales it with -seconds); warmup more are run first and
	// discarded.
	reps, warmup int
	setup        func(ctx context.Context, e *env, ch *core.Chain) (instance, error)
	check        func(ctx context.Context, e *env, ch *core.Chain) error
}

// instance is one set-up workload, ready for its timed operation.
type instance interface {
	// run performs the timed operation once and checks its closed-form
	// counts. It returns the arcs delivered and the latency of every
	// operation it made (one engine run, or each HTTP request).
	run(ctx context.Context) (opResult, error)
	close()
}

type opResult struct {
	arcs int64
	// wall and cpu cover the timed region only: the one call, or the
	// request loop. cpu is this process's user+sys time.
	wall, cpu time.Duration
	lat       []time.Duration // one entry per operation; nil: one operation of wall
	failed    int             // operations among them that failed
	peer      *peerReport     // route_tcp: what the second process reported
	stats     dist.Stats      // of the engine run, where there was one
	info      map[string]float64
}

// env is what a workload may use from the harness.
type env struct {
	seed    int64
	ranks   int    // Rmax
	scratch string // directory for store shards; inside the checkout
	size    string // sizeFull, sizeTiny or sizeVerify: which scale list applies
	scales  []int  // R-MAT scales of the chain in use; set by chain
	// storeDir, when set, makes the two-process run write a store there
	// in place of counting (the verification pass reads it back).
	storeDir string
	// warmup marks a repetition that will be discarded; store_disk spends
	// it on its read-back, so the counted repetitions stay short and many.
	warmup bool
	// spawnPeer starts the second process of a two-process cluster: a
	// child process at full size, a goroutine in the smoke test.
	spawnPeer func(ctx context.Context, e *env, headAddr string) (*peer, error)
}

// chain generates the factors from the seed and composes the chain.
// This is the only place the seed enters: the program under test sees
// graphs, never the seed.
func (e *env) chain(scales []int) (*core.Chain, error) {
	e.scales = scales
	gs := make([]*graph.Graph, len(scales))
	for i, s := range scales {
		g, err := gen.RMAT(gen.Graph500Params(s, e.seed+int64(i)))
		if err != nil {
			return nil, err
		}
		gs[i] = g
	}
	return core.NewChain(gs...)
}

// expand_k2 and route_chan, the two workloads BENCHMARK.json gates, time
// a quarter to half a second and are repeated many times; the other five
// time two to three seconds. The fastest repetition of a run is what is
// reported, and on a shared host it is steadier the shorter a repetition
// is: an undisturbed quarter second turns up far more often than an
// undisturbed two seconds (README, Calibration).
var workloads = []*workload{
	{
		name: "expand_k2",
		why:  "k=2 ExpandBlock kernel and engine loop alone: nil Owner, CountSink; no exchange, transport, sink or serve work",
		full: []int{10, 10}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps:  120,
		setup: setupEngine(nil), check: checkEngine(nil),
	},
	{
		name: "expand_k3",
		why:  "same call through the k>=3 TailCursor kernel: the control for any kernel change and for deleting the k=2 fast path",
		full: []int{7, 7, 7}, tiny: []int{2, 2, 2}, verify: []int{3, 3, 3},
		reps:  12,
		setup: setupEngine(nil), check: checkEngine(nil),
	},
	{
		name: "route_chan",
		why:  "OwnerBySource over the chan transport into CountSink: radix routing, batching and inline progress dominate, kernel is a tenth",
		full: []int{9, 9}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps:  75,
		setup: setupEngine(dist.OwnerBySource), check: checkEngine(dist.OwnerBySource),
	},
	{
		name: "route_tcp",
		why:  "same exchange across two processes on loopback: the only workload where tcp framing, wire encode/decode and sockets run",
		full: []int{10, 9}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps:  14,
		setup: setupTCP, check: checkTCP,
	},
	{
		name: "store_disk",
		why:  "exchange plus the async store sink and ShardWriter into a scratch directory (page-cache writes, no fsync), then a read-back",
		full: []int{9, 8}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps: 26, warmup: 1,
		setup: setupStore, check: checkStore,
	},
	{
		name: "http_stream",
		why:  "one unsupervised binary /gen download of the whole product: dist stream plus serve encode and flush, no routing, set-up amortised to nothing",
		full: []int{9, 9}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps:  14,
		setup: setupHTTP(false), check: checkHTTPStream,
	},
	{
		name: "http_pages",
		why:  "3000 sequential ndjson pages of 4096 arcs at seeded offsets: per-request set-up (resolve, chain, plan, seek, supervisor) and the ndjson encoder",
		full: []int{11, 11}, tiny: []int{4, 4}, verify: []int{5, 5},
		reps:  11,
		setup: setupHTTP(true), check: checkHTTPPages,
	},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

const (
	sizeFull   = "full"
	sizeTiny   = "tiny"
	sizeVerify = "verify"
)

func (w *workload) scales(size string) []int {
	switch size {
	case sizeTiny:
		return w.tiny
	case sizeVerify:
		return w.verify
	}
	return w.full
}

// stopwatch brackets a timed region.
type stopwatch struct {
	t0   time.Time
	cpu0 time.Duration
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu0: cpuTime()} }

func (s stopwatch) stop(arcs int64) opResult {
	return opResult{arcs: arcs, wall: time.Since(s.t0), cpu: cpuTime() - s.cpu0}
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

// checkStats holds an engine run to the closed-form arc count at every
// place the count is reported.
func checkStats(st dist.Stats, counted, want int64) error {
	if counted != want {
		return fmt.Errorf("sink counted %d arcs, closed form says %d", counted, want)
	}
	if got := sum(st.PerRankStored); got != want {
		return fmt.Errorf("Stats.PerRankStored sums to %d, closed form says %d", got, want)
	}
	if st.EdgesGenerated != want {
		return fmt.Errorf("Stats.EdgesGenerated = %d, closed form says %d", st.EdgesGenerated, want)
	}
	return nil
}

// --- expand_k2, expand_k3, route_chan: dist.Run into a CountSink ---

type engineInst struct {
	plan  dist.Plan
	owner dist.Owner
	arcs  int64
}

func setupEngine(owner dist.OwnerFunc) func(context.Context, *env, *core.Chain) (instance, error) {
	return func(_ context.Context, e *env, ch *core.Chain) (instance, error) {
		plan, err := dist.PlanChain1D(ch, e.ranks)
		if err != nil {
			return nil, err
		}
		arcs, err := ch.NumArcs()
		if err != nil {
			return nil, err
		}
		inst := &engineInst{plan: plan, arcs: arcs}
		if owner != nil { // keep a nil interface nil: that is what skips routing
			inst.owner = owner
		}
		return inst, nil
	}
}

func (in *engineInst) run(ctx context.Context) (opResult, error) {
	sink := &dist.CountSink{}
	sw := startWatch()
	st, err := dist.Run(ctx, dist.Config{Plan: in.plan, Owner: in.owner, Sink: sink})
	res := sw.stop(in.arcs)
	res.stats = st
	if err == nil {
		err = checkStats(st, sink.Total(), in.arcs)
	}
	return res, err
}

func (in *engineInst) close() {}

// --- route_tcp: dist.RunCluster across two processes on loopback ---

// peer is the second cluster process as the head sees it.
type peer struct {
	addr string
	// wait blocks until the peer has finished its RunCluster and returns
	// what it reported.
	wait func() (peerReport, error)
	stop func()
}

// peerReport is what the second process measured around its own
// RunCluster call; the head adds it to its own figures.
type peerReport struct {
	Counted int64   `json:"counted"`
	CPUSec  float64 `json:"cpu_s"`
	HWMKB   int64   `json:"hwm_kb"`
	Err     string  `json:"err,omitempty"`
}

// tcpRanks is the rank count of the two-process workloads: Rmax, but at
// least one rank per process.
func tcpRanks(e *env) int {
	if e.ranks < 2 {
		return 2
	}
	return e.ranks
}

type tcpInst struct {
	node *tcp.Node
	peer *peer
	cc   dist.ClusterConfig
	plan dist.Plan
	arcs int64
}

func setupTCP(ctx context.Context, e *env, ch *core.Chain) (instance, error) {
	r := tcpRanks(e)
	plan, err := dist.PlanChain1D(ch, r)
	if err != nil {
		return nil, err
	}
	arcs, err := ch.NumArcs()
	if err != nil {
		return nil, err
	}
	node, err := tcp.NewNode("127.0.0.1:0", 0, dist.PlanHash(plan))
	if err != nil {
		return nil, err
	}
	p, err := e.spawnPeer(ctx, e, node.Addr())
	if err != nil {
		node.Close()
		return nil, err
	}
	return &tcpInst{node: node, peer: p, plan: plan, arcs: arcs,
		cc: dist.ClusterConfig{Procs: transport.SplitRanks([]string{node.Addr(), p.addr}, r), Self: 0, Node: node}}, nil
}

func (in *tcpInst) run(ctx context.Context) (opResult, error) {
	sink := &dist.CountSink{}
	sw := startWatch()
	st, err := dist.RunCluster(ctx, in.cc, dist.Config{Plan: in.plan, Owner: dist.OwnerBySource, Sink: sink})
	res := sw.stop(in.arcs)
	res.stats = st
	rep, err := in.join(err)
	if err == nil {
		res.peer = &rep
		err = checkStats(st, sink.Total()+rep.Counted, in.arcs)
	}
	return res, err
}

// join waits for the second process and folds its outcome into the
// head's: the head's own error first, then a lost peer, then the error
// the peer reported.
func (in *tcpInst) join(err error) (peerReport, error) {
	rep, werr := in.peer.wait()
	switch {
	case err != nil:
	case werr != nil:
		err = werr
	case rep.Err != "":
		err = fmt.Errorf("peer: %s", rep.Err)
	}
	return rep, err
}

func (in *tcpInst) close() {
	in.peer.stop()
	in.node.Close()
}

// runPeer is the body of the second process: the same chain (e.scales)
// and plan from the same seed, its own node, then RunCluster as proc 1. ready is
// called with the listen address once the process could join a cluster.
func runPeer(ctx context.Context, e *env, headAddr string, ready func(addr string)) peerReport {
	fail := func(err error) peerReport { return peerReport{Err: err.Error()} }
	ch, err := e.chain(e.scales)
	if err != nil {
		return fail(err)
	}
	r := tcpRanks(e)
	plan, err := dist.PlanChain1D(ch, r)
	if err != nil {
		return fail(err)
	}
	node, err := tcp.NewNode("127.0.0.1:0", 1, dist.PlanHash(plan))
	if err != nil {
		return fail(err)
	}
	defer node.Close()
	ready(node.Addr())
	sink := &dist.CountSink{}
	cc := dist.ClusterConfig{Procs: transport.SplitRanks([]string{headAddr, node.Addr()}, r), Self: 1, Node: node}
	cpu0 := cpuTime()
	if e.storeDir != "" {
		_, _, err = dist.GenerateChainClusterToStore(ctx, ch, e.storeDir, false, cc, dist.Recovery{})
	} else {
		_, err = dist.RunCluster(ctx, cc, dist.Config{Plan: plan, Owner: dist.OwnerBySource, Sink: sink})
	}
	if err != nil {
		return fail(err)
	}
	return peerReport{Counted: sink.Total(), CPUSec: (cpuTime() - cpu0).Seconds()}
}

// goroutinePeer runs the second process as a goroutine — the smoke
// test's in-process stand-in. CPU and memory are the caller's already.
func goroutinePeer(ctx context.Context, e *env, headAddr string) (*peer, error) {
	ctx, cancel := context.WithCancel(ctx)
	addr := make(chan string, 1)
	done := make(chan peerReport, 1)
	go func() {
		pe := *e // the peer builds its own chain, as a second process would
		rep := runPeer(ctx, &pe, headAddr, func(a string) { addr <- a })
		rep.CPUSec = 0
		done <- rep
	}()
	wait := func() (peerReport, error) { return <-done, nil }
	select {
	case a := <-addr:
		return &peer{addr: a, wait: wait, stop: cancel}, nil
	case rep := <-done:
		cancel()
		return nil, fmt.Errorf("peer: %s", rep.Err)
	}
}

// --- store_disk: dist.GenerateChainToStore into the scratch directory ---

type storeInst struct {
	ch       *core.Chain
	ranks    int
	dir      string
	arcs     int64
	readBack bool
}

func setupStore(_ context.Context, e *env, ch *core.Chain) (instance, error) {
	arcs, err := ch.NumArcs()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.scratch, "store-"+strconv.Itoa(os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &storeInst{ch: ch, ranks: e.ranks, dir: dir, arcs: arcs, readBack: e.warmup}, nil
}

func (in *storeInst) run(context.Context) (opResult, error) {
	sw := startWatch()
	st, stats, err := dist.GenerateChainToStore(in.ch, in.ranks, in.dir, false)
	res := sw.stop(in.arcs)
	res.stats = stats
	if err != nil {
		return res, err
	}
	if err := checkStats(stats, st.TotalEdges(), in.arcs); err != nil {
		return res, err
	}
	if !in.readBack {
		return res, nil
	}
	// The read-back is timed on its own and never enters edges_per_s.
	t1 := time.Now()
	var n int64
	if err := st.Iter(func(u, v int64) bool { n++; return true }); err != nil {
		return res, err
	}
	res.info = map[string]float64{"readback_s": time.Since(t1).Seconds()}
	if n != in.arcs {
		return res, fmt.Errorf("read back %d arcs, closed form says %d", n, in.arcs)
	}
	return res, nil
}

func (in *storeInst) close() { os.RemoveAll(in.dir) }

// --- http_stream, http_pages: serve.New behind a loopback listener ---

const (
	pageArcs     = 4096
	pageRequests = 3000
)

type httpInst struct {
	ch     *core.Chain
	arcs   int64
	ranks  int
	seed   int64
	pages  int // 0: one whole-product binary download
	srv    *serve.Server
	hs     *http.Server
	client *http.Client
	base   string // http://127.0.0.1:port
	path   string // /gen/<hash>/<hash>/edges

	registered []time.Duration // how long each POST /factors took
}

// setupHTTP starts the server and registers the factors. The stream
// server runs unsupervised (GenRetries -1) because supervised streams
// with two or more ranks hang today; the page server keeps the default.
func setupHTTP(pages bool) func(context.Context, *env, *core.Chain) (instance, error) {
	return func(ctx context.Context, e *env, ch *core.Chain) (instance, error) {
		cfg := serve.Config{GenRetries: -1}
		n := 0
		if pages {
			cfg = serve.Config{}
			n = pageRequests
			if e.size == sizeTiny {
				n = 20
			}
		}
		return startHTTP(ctx, e, ch, cfg, n)
	}
}

func startHTTP(ctx context.Context, e *env, ch *core.Chain, cfg serve.Config, pages int) (*httpInst, error) {
	arcs, err := ch.NumArcs()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in := &httpInst{ch: ch, arcs: arcs, ranks: e.ranks, seed: e.seed, pages: pages,
		srv:  serve.New(cfg),
		base: "http://" + ln.Addr().String(), path: "/gen"}
	in.hs = &http.Server{Handler: in.srv}
	go in.hs.Serve(ln) // returns when close() closes the server
	// One connection, reused: the load model is a closed loop with a
	// single client.
	in.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for _, g := range ch.Factors() {
		t0 := time.Now()
		hash, err := in.register(ctx, g)
		if err != nil {
			in.close()
			return nil, err
		}
		in.registered = append(in.registered, time.Since(t0))
		in.path += "/" + hash
	}
	in.path += "/edges"
	return in, nil
}

// register uploads one factor and returns the hash the server keyed it
// under.
func (in *httpInst) register(ctx context.Context, g *graph.Graph) (string, error) {
	var body bytes.Buffer
	if err := g.WriteBinary(&body); err != nil {
		return "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, in.base+"/factors", &body)
	if err != nil {
		return "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := in.client.Do(req)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	var info struct {
		Hash string `json:"hash"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return "", fmt.Errorf("POST /factors: %s: %w", resp.Status, err)
	}
	if (resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK) || info.Hash == "" {
		return "", fmt.Errorf("POST /factors: %s", resp.Status)
	}
	return info.Hash, nil
}

// reply is one /gen response as the client saw it.
type reply struct {
	status  int
	header  http.Header
	trailer http.Header
	n       int64         // body bytes
	ttfb    time.Duration // send → response header
	total   time.Duration // send → trailer
}

// get issues one GET and drains the body into sink. The clock stops when
// the body has ended, which is when the trailers have arrived.
func (in *httpInst) get(ctx context.Context, query string, hdr http.Header, sink io.Writer) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, in.base+in.path+"?"+query, nil)
	if err != nil {
		return reply{}, err
	}
	for k, v := range hdr {
		req.Header[k] = v
	}
	t0 := time.Now()
	resp, err := in.client.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	r := reply{status: resp.StatusCode, header: resp.Header, ttfb: time.Since(t0)}
	r.n, err = io.Copy(sink, resp.Body)
	r.total = time.Since(t0)
	r.trailer = resp.Trailer
	return r, err
}

// complete checks what every successful /gen reply must carry.
func (r reply) complete(status int, arcs int64) error {
	if r.status != status {
		return fmt.Errorf("status %d, want %d", r.status, status)
	}
	if got := r.trailer.Get("X-Kronlab-Complete"); got != "true" {
		return fmt.Errorf("X-Kronlab-Complete = %q", got)
	}
	if got := r.trailer.Get("X-Kronlab-Arcs-Written"); got != strconv.FormatInt(arcs, 10) {
		return fmt.Errorf("X-Kronlab-Arcs-Written = %q, want %d", got, arcs)
	}
	return nil
}

func (in *httpInst) run(ctx context.Context) (opResult, error) {
	if in.pages == 0 {
		return in.runStream(ctx)
	}
	return in.runPages(ctx, nil)
}

func (in *httpInst) runStream(ctx context.Context) (opResult, error) {
	sw := startWatch()
	r, err := in.get(ctx, "format=binary&ranks="+strconv.Itoa(in.ranks), nil, io.Discard)
	res := sw.stop(in.arcs)
	if err == nil {
		err = r.complete(http.StatusOK, in.arcs)
	}
	if err == nil && r.n != in.arcs*store.RecordSize {
		err = fmt.Errorf("body is %d bytes, closed form says %d", r.n, in.arcs*store.RecordSize)
	}
	return res, err
}

// runPages makes the page requests one after another. A failed page is
// counted and the loop goes on; each page is checked for status,
// trailers, line count and, against the oracle, its first arc. The wall
// and CPU clocks run from send to trailer only: checking a page is the
// harness's work, not the server's, and stays out of both. each, if set,
// sees every reply (the traced run's span hook).
func (in *httpInst) runPages(ctx context.Context, each func(reply)) (opResult, error) {
	rng := rand.New(rand.NewSource(in.seed))
	lat := make([]time.Duration, 0, in.pages)
	var body bytes.Buffer
	var firstErr error
	var res opResult
	for i := 0; i < in.pages; i++ {
		off := rng.Int63n(in.arcs - pageArcs + 1)
		body.Reset()
		sw := startWatch()
		r, err := in.get(ctx, fmt.Sprintf("ranks=1&offset=%d&limit=%d", off, pageArcs), nil, &body)
		req := sw.stop(0)
		res.wall += req.wall
		res.cpu += req.cpu
		lat = append(lat, r.total)
		if err == nil {
			err = r.complete(http.StatusOK, pageArcs)
		}
		if err == nil {
			err = in.checkPage(off, body.Bytes())
		}
		if err != nil {
			res.failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("page %d (offset %d): %w", i, off, err)
			}
			continue
		}
		res.arcs += pageArcs
		if each != nil {
			each(r)
		}
	}
	res.lat = lat
	return res, firstErr
}

func (in *httpInst) checkPage(off int64, body []byte) error {
	if n := bytes.Count(body, []byte{'\n'}); n != pageArcs {
		return fmt.Errorf("%d lines, want %d", n, pageArcs)
	}
	var want string
	if _, err := in.ch.ArcsFrom(off, func(u, v int64) bool {
		want = fmt.Sprintf("{\"u\":%d,\"v\":%d}\n", u, v)
		return false
	}); err != nil {
		return err
	}
	if !bytes.HasPrefix(body, []byte(want)) {
		return fmt.Errorf("first line is not arc %d of the chain", off)
	}
	return nil
}

func (in *httpInst) close() {
	in.client.CloseIdleConnections()
	in.hs.Close()
}
