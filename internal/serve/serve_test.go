package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// registerText uploads g as a text edge list and returns its hash.
func registerText(t *testing.T, ts *httptest.Server, g *graph.Graph, name string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	u := ts.URL + "/factors"
	if name != "" {
		u += "?name=" + url.QueryEscape(name)
	}
	resp, err := http.Post(u, "text/plain", &buf)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated && resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("register: status %d: %s", resp.StatusCode, body)
	}
	var info FactorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	return info.Hash
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func TestRegisterContentAddressed(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	g := gen.PrefAttach(10, 2, 1)

	hash := registerText(t, ts, g, "alpha")
	if hash != g.CanonicalHash() {
		t.Fatalf("hash %s != canonical %s", hash, g.CanonicalHash())
	}

	// Same graph as binary: idempotent, same address, 200 not 201.
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/factors", "application/octet-stream", &bin)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register: status %d, want 200", resp.StatusCode)
	}
	var info FactorInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Hash != hash {
		t.Fatalf("binary re-register changed address: %s vs %s", info.Hash, hash)
	}

	// Lookup by full hash, by 12-char prefix, and by name.
	for _, key := range []string{hash, hash[:12], "alpha"} {
		got := getJSON(t, ts.URL+"/factors/"+key, http.StatusOK)
		if got["hash"] != hash {
			t.Errorf("lookup %q returned %v", key, got["hash"])
		}
	}
	getJSON(t, ts.URL+"/factors/nosuchthing", http.StatusNotFound)

	list := getJSON(t, ts.URL+"/factors", http.StatusOK)
	if n := len(list["factors"].([]any)); n != 1 {
		t.Errorf("listing has %d factors, want 1", n)
	}
}

func TestRegisterRejectsGarbage(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{"", "a b\n", "0 -4\n"} {
		resp, err := http.Post(ts.URL+"/factors", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}
	// Truncated binary payload.
	g := gen.Ring(6)
	var bin bytes.Buffer
	if err := g.WriteBinary(&bin); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/factors", "application/octet-stream",
		bytes.NewReader(bin.Bytes()[:bin.Len()-5]))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("truncated binary: status %d, want 400", resp.StatusCode)
	}
}

// TestRegisterRefusesHugeTextEndpoint: a one-line text upload naming a
// vertex past the reader's 2²⁸ limit is a 400 from the parser, by line —
// not an allocation of offsets sized by the endpoint. The endpoint is past
// 2³² too, so were the parser to let it through, NewUndirected would still
// refuse it without allocating, and the message check would fail.
func TestRegisterRefusesHugeTextEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/factors", "text/plain", strings.NewReader("0 100000000000"))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "text edge list: graph: line 1:") {
		t.Errorf("status %d body %s, want 400 naming line 1", resp.StatusCode, body)
	}
}

// TestSummarySingleflight is the acceptance concurrency test: N parallel
// identical analytics requests must compute each factor summary exactly
// once, with every response identical.
func TestSummarySingleflight(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 32, MaxQueue: 64})
	a := gen.PrefAttach(14, 2, 3)
	b := gen.PrefAttach(11, 2, 4)
	ha := registerText(t, ts, a, "")
	hb := registerText(t, ts, b, "")

	const parallel = 16
	urlStr := fmt.Sprintf("%s/gt/%s/%s/diameter?loops=1", ts.URL, ha, hb)
	results := make([]string, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(urlStr)
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			body, _ := io.ReadAll(resp.Body)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d: %s", i, resp.StatusCode, body)
				return
			}
			results[i] = string(body)
		}(i)
	}
	wg.Wait()

	for i := 1; i < parallel; i++ {
		if results[i] != results[0] {
			t.Fatalf("response %d differs: %s vs %s", i, results[i], results[0])
		}
	}
	// One entry a factor: its +I form with the distance tier.
	if builds := s.Metrics().SummaryBuilds.Load(); builds != 2 {
		t.Errorf("summary built %d times for 2 factors under %d parallel requests, want exactly 2",
			builds, parallel)
	}
	if hits := s.Metrics().CacheHits.Load() + s.Metrics().CacheMisses.Load(); hits == 0 {
		t.Error("cache saw no traffic")
	}
}

// TestAdmissionControl is the acceptance 429 test: with 1 execution slot
// and a queue of 1, a third concurrent request is rejected immediately
// instead of queueing unboundedly.
func TestAdmissionControl(t *testing.T) {
	s := New(Config{MaxInflight: 1, MaxQueue: 1})
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	blocked := s.admitted(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})

	req := httptest.NewRequest("GET", "/x", nil)
	codes := make([]int, 3)
	var wg sync.WaitGroup
	run := func(i int) {
		defer wg.Done()
		rec := httptest.NewRecorder()
		blocked(rec, req)
		codes[i] = rec.Code
	}

	wg.Add(1)
	go run(0)
	<-started // request 0 holds the slot

	wg.Add(1)
	go run(1) // request 1 waits in the queue
	waitFor(t, func() bool { return s.lim.Waiting() == 1 })

	wg.Add(1)
	go run(2) // request 2 must bounce
	waitFor(t, func() bool { return s.Metrics().AdmissionRejected.Load() == 1 })

	close(release)
	wg.Wait()
	if codes[2] != http.StatusTooManyRequests {
		t.Errorf("overflow request got %d, want 429", codes[2])
	}
	if codes[0] != http.StatusOK || codes[1] != http.StatusOK {
		t.Errorf("admitted requests got %d, %d, want 200, 200", codes[0], codes[1])
	}
}

func TestAcquireContextCancel(t *testing.T) {
	lim := NewLimiter(1, 2)
	if err := lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := lim.Acquire(ctx); err != context.DeadlineExceeded {
		t.Fatalf("queued acquire under dead context: %v", err)
	}
	// The abandoned wait must have returned its queue token.
	if lim.Waiting() != 0 {
		t.Errorf("abandoned waiter leaked a queue token: %d waiting", lim.Waiting())
	}
	lim.Release()
	if err := lim.Acquire(context.Background()); err != nil {
		t.Errorf("limiter unusable after cancelled wait: %v", err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSummaryBuildsOnlyTheTiersItsRowReads: on a fresh server, a degree
// query — point or histogram — and a closeness query, which sweeps its
// digits, build no triangle and no distance tier, and a diameter query
// no triangle tier, at loops=0 (over a factor with full loops) and at
// loops=1; each builds one entry per key.
func TestSummaryBuildsOnlyTheTiersItsRowReads(t *testing.T) {
	for _, c := range []struct {
		query string
		may   groundtruth.Tiers // the tiers the query's entries may hold
	}{
		{"degree?p=1&loops=", 0},
		{"degree?hist=1&loops=", 0},
		{"diameter?loops=", groundtruth.Distances},
		{"closeness?p=1&loops=", 0},
	} {
		for _, loops := range []string{"0", "1"} {
			s, ts := newTestServer(t, Config{})
			a := gen.PrefAttach(14, 2, 3)
			if loops == "0" {
				a = a.WithFullSelfLoops()
			}
			ha := registerText(t, ts, a, "")
			getJSON(t, ts.URL+"/gt/"+ha+"/"+ha+"/"+c.query+loops, http.StatusOK)
			built := map[groundtruth.Tiers]int{}
			s.cache.mu.Lock()
			for el := s.cache.ll.Front(); el != nil; el = el.Next() {
				e := el.Value.(*cacheEntry)
				built[e.key.Tiers]++
				if e.key.Tiers&^c.may != 0 || (e.f.Tri != nil) != (e.key.Tiers&groundtruth.Triangles != 0) {
					t.Errorf("%s%s built tiers %b, may build %b", c.query, loops, e.key.Tiers, c.may)
				}
			}
			n := s.cache.ll.Len()
			s.cache.mu.Unlock()
			if builds := s.Metrics().SummaryBuilds.Load(); builds != 1 || n != 1 || built[c.may] != 1 {
				t.Errorf("%s%s: %d builds, %d entries (%v by tiers), want one with tiers %b", c.query, loops, builds, n, built, c.may)
			}
		}
	}
}

// TestCacheBytesAreItsEntries: over degree, triangles, diameter and hops
// queries at both loops, then an eviction, Bytes() equals the sum of the
// resident entries' bytes after every step, and no two resident entries
// share an array the cache charges: degrees, triangles or eccentricities.
// No entry holds a graph of its own: a +I entry reads the registered one.
func TestCacheBytesAreItsEntries(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	ha := registerText(t, ts, gen.PrefAttach(600, 45, 3), "")
	exact := func(when string) {
		t.Helper()
		s.cache.mu.Lock()
		defer s.cache.mu.Unlock()
		var sum int64
		owner := map[any]SummaryKey{}
		for el := s.cache.ll.Front(); el != nil; el = el.Next() {
			e := el.Value.(*cacheEntry)
			sum += e.f.CostBytes()
			charged := []any{&e.f.Deg[0]}
			if e.f.Tri != nil {
				charged = append(charged, e.f.Tri)
			}
			if e.key.Tiers&groundtruth.Distances != 0 {
				charged = append(charged, &e.f.Ecc[0])
			}
			for _, a := range charged {
				if other, ok := owner[a]; ok {
					t.Errorf("after %s: %+v and %+v share a charged array", when, e.key, other)
				}
				owner[a] = e.key
			}
		}
		if s.cache.curBytes != sum {
			t.Errorf("after %s: Bytes() = %d, the %d resident entries hold %d", when, s.cache.curBytes, s.cache.ll.Len(), sum)
		}
	}
	get := func(q string) { getJSON(t, ts.URL+"/gt/"+ha+"/"+ha+"/"+q, http.StatusOK) }
	for _, q := range []string{"degree?p=0", "degree?loops=1&p=0", "triangles", "triangles?loops=1", "diameter?loops=1", "hops?loops=1&p=0&q=1"} {
		get(q)
		exact(q)
	}
	if n := s.cache.Len(); n != 4 {
		t.Fatalf("%d resident entries, want 4: degrees at both loops, triangles, and the +I distance tier", n)
	}
	// A budget that holds the distance entry and a ring's degrees evicts
	// every other entry once the ring's degree entry arrives.
	get("diameter?loops=1")
	distKey := SummaryKey{Hash: ha, Loops: true, Tiers: groundtruth.Distances}
	s.cache.mu.Lock()
	s.cache.maxBytes = s.cache.items[distKey].Value.(*cacheEntry).bytes + 3*8
	s.cache.mu.Unlock()
	hr := registerText(t, ts, gen.Ring(3), "")
	getJSON(t, ts.URL+"/gt/"+hr+"/"+hr+"/degree?p=0", http.StatusOK)
	if n := s.cache.Len(); n != 2 {
		t.Fatalf("%d resident entries after eviction, want the distance entry and the ring's degrees", n)
	}
	exact("eviction")
}

// TestCacheLoopsDegreeEntryCostsItsDegrees: a loops=1 degree entry is
// charged exactly what the loops=0 one is, n degrees, and reads the
// registered graph: the +I is read off it, not built.
func TestCacheLoopsDegreeEntryCostsItsDegrees(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(600, 45, 3)
	ha := registerText(t, ts, a, "")
	for _, loops := range []string{"0", "1"} {
		getJSON(t, ts.URL+"/gt/"+ha+"/"+ha+"/degree?p=1&loops="+loops, http.StatusOK)
	}
	g, _, _ := s.reg.Get(ha)
	cost := map[bool]int64{}
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	for el := s.cache.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		cost[e.key.Loops] = e.bytes
		if e.f.G != g {
			t.Errorf("the loops=%v degree entry reads a copy of the factor", e.key.Loops)
		}
	}
	if want := a.NumVertices() * 8; len(cost) != 2 || cost[false] != want || cost[true] != want {
		t.Errorf("degree entries cost %v by loops, want %d bytes each", cost, want)
	}
}

// TestGenerateLoopsCachesOnePlusIGraph: concurrent loops=1 streams of a
// power chain read the one +I graph the registry builds on the first ask,
// and each streams every arc of (A+I)^{⊗3}.
func TestGenerateLoopsCachesOnePlusIGraph(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(10, 2, 6)
	ha := registerText(t, ts, a, "")
	d := a.NumArcs() + a.NumVertices()
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/gen/" + ha + "/edges?power=3&loops=1")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			lines := 0
			if _, err := io.Copy(io.Discard, newLineCounter(resp.Body, &lines)); err != nil {
				t.Error(err)
			}
			if int64(lines) != d*d*d {
				t.Errorf("loops=1 power=3 streamed %d arcs, want %d", lines, d*d*d)
			}
		}()
	}
	wg.Wait()
	s.reg.mu.RLock()
	built := s.reg.byHash[ha].plusI
	s.reg.mu.RUnlock()
	if built == nil || s.reg.PlusI(ha) != built || built.NumSelfLoops() != a.NumVertices() {
		t.Errorf("the registry holds +I graph %v after the streams, want one with %d loops", built, a.NumVertices())
	}
}

func TestCacheEvictionBudget(t *testing.T) {
	m := NewMetrics()
	g1 := gen.PrefAttach(20, 2, 1)
	g2 := gen.PrefAttach(20, 2, 2)
	s1 := groundtruth.NewFactor(g1, groundtruth.Triangles).CostBytes()
	// Budget fits exactly one triangle summary.
	c := NewSummaryCache(s1+8, m)

	ctx := context.Background()
	build := func(g *graph.Graph) func() *groundtruth.Factor {
		return func() *groundtruth.Factor { return groundtruth.NewFactor(g, groundtruth.Triangles) }
	}
	if _, err := c.Get(ctx, SummaryKey{Hash: "h1", Tiers: groundtruth.Triangles}, build(g1)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Get(ctx, SummaryKey{Hash: "h2", Tiers: groundtruth.Triangles}, build(g2)); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d entries over budget, want 1", c.Len())
	}
	if m.CacheEvictions.Load() != 1 {
		t.Errorf("evictions = %d, want 1", m.CacheEvictions.Load())
	}
	// h1 was evicted: asking again rebuilds.
	if _, err := c.Get(ctx, SummaryKey{Hash: "h1", Tiers: groundtruth.Triangles}, build(g1)); err != nil {
		t.Fatal(err)
	}
	if m.SummaryBuilds.Load() != 3 {
		t.Errorf("builds = %d, want 3 (h1, h2, h1 again)", m.SummaryBuilds.Load())
	}
	// An entry larger than the whole budget is still admitted (and alone).
	big := groundtruth.NewFactor(gen.PrefAttach(40, 3, 3), groundtruth.Distances)
	if _, err := c.Get(ctx, SummaryKey{Hash: "big", Tiers: groundtruth.Distances},
		func() *groundtruth.Factor { return big }); err != nil {
		t.Fatal(err)
	}
	if c.Len() != 1 {
		t.Errorf("oversized entry handling: %d entries, want 1", c.Len())
	}
}

func TestGroundTruthValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(8, 2, 5) // loop-free
	ha := registerText(t, ts, a, "")

	cases := []struct {
		name, url string
		status    int
	}{
		{"unknown factor", "/gt/" + strings.Repeat("0", 64) + "/" + ha + "/degree?p=0", http.StatusNotFound},
		{"unknown property", "/gt/" + ha + "/" + ha + "/frobnicate", http.StatusNotFound},
		{"degree missing p", "/gt/" + ha + "/" + ha + "/degree", http.StatusBadRequest},
		{"degree p out of range", "/gt/" + ha + "/" + ha + "/degree?p=9999", http.StatusBadRequest},
		{"distance without loops on loop-free factors", "/gt/" + ha + "/" + ha + "/diameter", http.StatusBadRequest},
		{"clustering under loops", "/gt/" + ha + "/" + ha + "/clustering?p=0&loops=1", http.StatusBadRequest},
		{"community without loops", "/gt/" + ha + "/" + ha + "/community?sa=0&sb=0", http.StatusBadRequest},
		{"community bad set", "/gt/" + ha + "/" + ha + "/community?sa=0,99&sb=0&loops=1", http.StatusBadRequest},
		{"triangles non-edge", "/gt/" + ha + "/" + ha + "/triangles?p=0&q=0", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			getJSON(t, ts.URL+tc.url, tc.status)
		})
	}

	// A factor with loops cannot serve loops=1 triangle formulas.
	loopy := gen.Ring(5).WithFullSelfLoops()
	hl := registerText(t, ts, loopy, "")
	getJSON(t, ts.URL+"/gt/"+hl+"/"+hl+"/triangles?loops=1", http.StatusBadRequest)
	// But it serves plain-mode distance directly (it has full self loops).
	got := getJSON(t, ts.URL+"/gt/"+hl+"/"+hl+"/diameter", http.StatusOK)
	if got["diameter"] != float64(2) {
		t.Errorf("ring-with-loops squared diameter = %v, want 2", got["diameter"])
	}
}

func TestGenerateStreamLimitAndHeaders(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(10, 2, 6)
	b := gen.PrefAttach(7, 2, 7)
	ha := registerText(t, ts, a, "")
	hb := registerText(t, ts, b, "")

	resp, err := http.Get(fmt.Sprintf("%s/gen/%s/%s/edges?limit=10", ts.URL, ha, hb))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("X-Kronlab-Product-Arcs"); got != fmt.Sprint(a.NumArcs()*b.NumArcs()) {
		t.Errorf("arc header %q", got)
	}
	lines := 0
	sc := newLineCounter(resp.Body, &lines)
	if _, err := io.Copy(io.Discard, sc); err != nil {
		t.Fatal(err)
	}
	if lines != 10 {
		t.Errorf("limit=10 streamed %d lines", lines)
	}

	for _, bad := range []string{"?format=xml", "?layout=3d", "?ranks=0", "?limit=-2"} {
		resp, err := http.Get(fmt.Sprintf("%s/gen/%s/%s/edges%s", ts.URL, ha, hb, bad))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", bad, resp.StatusCode)
		}
	}
}

// newLineCounter counts newlines flowing through a reader.
func newLineCounter(r io.Reader, n *int) io.Reader {
	return &lineCounter{r: r, n: n}
}

type lineCounter struct {
	r io.Reader
	n *int
}

func (lc *lineCounter) Read(p []byte) (int, error) {
	n, err := lc.r.Read(p)
	*lc.n += bytes.Count(p[:n], []byte("\n"))
	return n, err
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(9, 2, 8)
	ha := registerText(t, ts, a, "")
	getJSON(t, fmt.Sprintf("%s/gt/%s/%s/triangles", ts.URL, ha, ha), http.StatusOK)
	if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["kernel"] != core.Kernel() {
		t.Errorf("/healthz kernel = %v, want %q", h["kernel"], core.Kernel())
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		`kronserve_requests_total{route="factors"} 1`,
		`kronserve_requests_total{route="gt"} 1`,
		"kronserve_summary_builds_total 1", // A ⊗ A: one factor, one build
		"kronserve_factors_registered 1",
		fmt.Sprintf("kronlab_kernel_info{impl=%q} 1", core.Kernel()),
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics missing %q in:\n%s", want, text)
		}
	}
}

// flushRecorder is a ResponseWriter that implements http.Flusher and
// records when flushes happen relative to the bytes written — the probe
// for incremental stream delivery.
type flushRecorder struct {
	header            http.Header
	status            int
	body              bytes.Buffer
	flushes           int
	bytesAtFirstFlush int
}

func (f *flushRecorder) Header() http.Header {
	if f.header == nil {
		f.header = make(http.Header)
	}
	return f.header
}

func (f *flushRecorder) Write(p []byte) (int, error) { return f.body.Write(p) }

func (f *flushRecorder) WriteHeader(code int) { f.status = code }

func (f *flushRecorder) Flush() {
	f.flushes++
	if f.flushes == 1 {
		f.bytesAtFirstFlush = f.body.Len()
	}
}

// TestGenerateFlushesIncrementally is the streaming regression: the
// instrumentation wrapper used to hide http.Flusher from handleGenerate,
// and the handler only flushed once at end of stream, so a long product
// buffered server-side in its entirety. The response must reach the
// client in increments while generation is still running.
func TestGenerateFlushesIncrementally(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a := gen.ER(20, 0.5, 31)
	b := gen.ER(20, 0.5, 32)
	ha := registerText(t, ts, a, "")
	hb := registerText(t, ts, b, "")
	wantArcs := a.NumArcs() * b.NumArcs() // ~40k edges, dozens of batches

	// Drive the full handler chain (instrument → admitted → generate) so
	// the Flush passthrough on the wrapping ResponseWriter is exercised.
	rec := &flushRecorder{}
	req := httptest.NewRequest("GET", fmt.Sprintf("/gen/%s/%s/edges", ha, hb), nil)
	s.ServeHTTP(rec, req)

	if rec.status != 0 && rec.status != http.StatusOK {
		t.Fatalf("status %d: %s", rec.status, rec.body.Bytes())
	}
	lines := bytes.Count(rec.body.Bytes(), []byte("\n"))
	if int64(lines) != wantArcs {
		t.Fatalf("streamed %d edges, want %d", lines, wantArcs)
	}
	if rec.flushes < 2 {
		t.Fatalf("stream flushed %d times; want ≥ 2 (incremental delivery)", rec.flushes)
	}
	if rec.bytesAtFirstFlush == 0 {
		t.Fatal("first flush carried no bytes: stream is not reaching the client incrementally")
	}
	if rec.bytesAtFirstFlush >= rec.body.Len() {
		t.Fatalf("first flush only happened at end of stream (%d of %d bytes)",
			rec.bytesAtFirstFlush, rec.body.Len())
	}
}

// TestGenerateFlushesPerBatch: over a product whose innermost factor has
// fewer arcs than a batch — the walk emits it in tail-sized blocks — the
// stream is flushed once per batch of arcs and at the end, not per block.
func TestGenerateFlushesPerBatch(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	a, b := gen.ER(60, 0.5, 41), gen.Ring(5) // b: 10 arcs a head arc
	ha, hb := registerText(t, ts, a, ""), registerText(t, ts, b, "")
	arcs := a.NumArcs() * b.NumArcs()
	for _, q := range []string{"", "?format=binary", "?ranks=3"} {
		rec := &flushRecorder{}
		s.ServeHTTP(rec, httptest.NewRequest("GET", fmt.Sprintf("/gen/%s/%s/edges%s", ha, hb, q), nil))
		if rec.status != 0 && rec.status != http.StatusOK {
			t.Fatalf("%q: status %d: %s", q, rec.status, rec.body.Bytes())
		}
		if most := (arcs+dist.DefaultBatchSize-1)/dist.DefaultBatchSize + 1; int64(rec.flushes) > most {
			t.Errorf("%q: %d flushes for %d arcs, want at most %d", q, rec.flushes, arcs, most)
		}
	}
}

// TestGenerateCompletionTrailer: a finished stream must carry the
// declared trailers — complete=true and the exact arc count — and a
// client-requested limit= truncation still counts as complete.
func TestGenerateCompletionTrailer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.ER(12, 0.4, 91)
	b := gen.ER(11, 0.4, 92)
	ha := registerText(t, ts, a, "")
	hb := registerText(t, ts, b, "")
	total := a.NumArcs() * b.NumArcs()

	for _, tc := range []struct {
		query     string
		wantArcs  int64
		wantLines int64
	}{
		{"", total, total},
		{"?limit=5", 5, 5},
	} {
		resp, err := http.Get(ts.URL + "/gen/" + ha + "/" + hb + "/edges" + tc.query)
		if err != nil {
			t.Fatal(err)
		}
		// The client surfaces declared trailer names as placeholder keys
		// in resp.Trailer before the body is read.
		if _, declared := resp.Trailer["X-Kronlab-Complete"]; !declared {
			t.Fatalf("trailer not declared up front: %v", resp.Trailer)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if lines := int64(strings.Count(string(body), "\n")); lines != tc.wantLines {
			t.Fatalf("%q: streamed %d lines, want %d", tc.query, lines, tc.wantLines)
		}
		if got := resp.Trailer.Get("X-Kronlab-Complete"); got != "true" {
			t.Fatalf("%q: X-Kronlab-Complete = %q, want true", tc.query, got)
		}
		if got := resp.Trailer.Get("X-Kronlab-Arcs-Written"); got != fmt.Sprint(tc.wantArcs) {
			t.Fatalf("%q: X-Kronlab-Arcs-Written = %q, want %d", tc.query, got, tc.wantArcs)
		}
	}
}

// TestRetryAfterComputed: a 429 must carry a Retry-After derived from the
// observed heavy-request duration and the queue depth, not the old
// hardcoded "1".
func TestRetryAfterComputed(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, MaxQueue: 1})
	// Seed the estimator with a known duration: first observation sets
	// the EWMA exactly.
	s.metrics.ObserveHeavy(3 * time.Second)

	// Occupy the single slot, then queue one waiter so the next request
	// is rejected with the queue at depth 1.
	if err := s.lim.Acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := s.lim.Acquire(context.Background()); err == nil {
			s.lim.Release()
		}
	}()
	for i := 0; s.lim.Waiting() != 1; i++ {
		if i > 1000 {
			t.Fatal("queued waiter never showed up")
		}
		time.Sleep(time.Millisecond)
	}

	resp, err := http.Get(ts.URL + "/gt/nosuch/nosuch/degree")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	// est 3s × (1 waiting + 1) / 1 slot = 6s.
	if got := resp.Header.Get("Retry-After"); got != "6" {
		t.Fatalf("Retry-After = %q, want 6 (3s EWMA × queue depth 2)", got)
	}

	s.lim.Release()
	wg.Wait()
}

// TestDrainModeRefusesHeavy: after BeginShutdown heavy endpoints answer
// 503 with a Retry-After while health stays up and reports draining.
func TestDrainModeRefusesHeavy(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["status"] != "ok" {
		t.Fatalf("pre-drain health = %v", h["status"])
	}
	s.BeginShutdown()
	s.BeginShutdown() // idempotent

	resp, err := http.Get(ts.URL + "/gt/nosuch/nosuch/degree")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /gt status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("draining rejection missing Retry-After")
	}
	if h := getJSON(t, ts.URL+"/healthz", http.StatusOK); h["status"] != "draining" {
		t.Fatalf("draining health = %v, want draining", h["status"])
	}
}

// TestShutdownCancelsGenStream: BeginShutdown must cancel an in-flight
// generation stream — the handler finishes with complete=false in the
// trailer instead of holding the connection (and http.Server.Shutdown)
// open until the product is exhausted. The cut stream delivers every arc
// its trailer counts, so resuming it on another server reproduces the
// uncut stream — also when the tail has fewer arcs than a batch, where
// the cut can fall between flushes.
func TestShutdownCancelsGenStream(t *testing.T) {
	// Each product is large enough that the stream must block on client
	// backpressure (~1M arcs ≈ 19 MB of NDJSON) long before it completes.
	for _, tc := range []struct {
		name string
		a, b *graph.Graph
	}{
		{"batch-tail", gen.ER(60, 0.3, 93), gen.ER(60, 0.3, 94)},
		{"short-tail", gen.ER(400, 0.3, 95), gen.Ring(10)}, // 20 arcs a head arc
	} {
		t.Run(tc.name, func(t *testing.T) { shutdownCutsAndResumes(t, tc.a, tc.b) })
	}
}

func shutdownCutsAndResumes(t *testing.T, a, b *graph.Graph) {
	s, ts := newTestServer(t, Config{})
	ha := registerText(t, ts, a, "")
	hb := registerText(t, ts, b, "")
	total := a.NumArcs() * b.NumArcs()

	resp, err := http.Get(ts.URL + "/gen/" + ha + "/" + hb + "/edges")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	head := make([]byte, 1024)
	if _, err := io.ReadFull(resp.Body, head); err != nil {
		t.Fatalf("reading stream head: %v", err)
	}
	s.BeginShutdown()
	rest, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("draining cancelled stream: %v", err)
	}
	if got := resp.Trailer.Get("X-Kronlab-Complete"); got != "false" {
		t.Fatalf("X-Kronlab-Complete = %q after shutdown, want false", got)
	}
	written, err := strconv.ParseInt(resp.Trailer.Get("X-Kronlab-Arcs-Written"), 10, 64)
	if err != nil {
		t.Fatalf("bad X-Kronlab-Arcs-Written trailer: %v", err)
	}
	if written >= total {
		t.Fatalf("shutdown did not cut the stream: %d of %d arcs written", written, total)
	}
	if int64(len(rest)) > total*20 {
		t.Fatalf("stream kept flowing after shutdown: read %d bytes", len(rest))
	}
	cut := append(head, rest...)
	if lines := int64(bytes.Count(cut, []byte("\n"))); lines != written || !bytes.HasSuffix(cut, []byte("\n")) {
		t.Fatalf("cut stream delivered %d arcs (%d bytes), trailer counts %d", lines, len(cut), written)
	}

	// The draining server refuses new streams; resume on a fresh one.
	_, ts2 := newTestServer(t, Config{})
	base := fmt.Sprintf("%s/gen/%s/%s/edges", ts2.URL, registerText(t, ts2, a, ""), registerText(t, ts2, b, ""))
	full := readAll(t, genGet(t, base, ""))
	resumed := genGet(t, base+"?resume="+resp.Trailer.Get("X-Kronlab-Resume-Token"), "")
	if resumed.StatusCode != http.StatusOK {
		t.Fatalf("resume: status %d: %s", resumed.StatusCode, readAll(t, resumed))
	}
	if !bytes.Equal(append(cut, readAll(t, resumed)...), full) {
		t.Fatal("cut stream plus its resumption differs from the uncut stream")
	}
}
