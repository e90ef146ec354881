package serve

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist"
)

// routeNames are the fixed instrumentation labels; every endpoint maps to
// one of them. A fixed set keeps the hot path allocation- and lock-free.
var routeNames = []string{"factors", "gt", "gen", "meta"}

// RouteStats aggregates request counts, response codes by class, and
// latency for one route label. All fields are atomics; a snapshot read
// during traffic is approximate, which is fine for monitoring.
type RouteStats struct {
	Requests atomic.Int64
	NanosSum atomic.Int64
	NanosMax atomic.Int64
	Status   [6]atomic.Int64 // index = HTTP status / 100 (0 unused)
}

// Metrics is kronserve's operational counter set, exposed at /metrics in
// Prometheus text exposition format (no client library — stdlib only).
type Metrics struct {
	Start  time.Time
	routes map[string]*RouteStats

	CacheHits      atomic.Int64
	CacheMisses    atomic.Int64
	SummaryBuilds  atomic.Int64
	CacheEvictions atomic.Int64

	AdmissionRejected atomic.Int64

	// heavyNanos is an exponentially-weighted moving average (α = 1/8) of
	// admitted heavy-request durations, feeding the Retry-After estimate.
	heavyNanos atomic.Int64

	// Generation traffic, accumulated from dist.Stats after each stream.
	GenEdges    atomic.Int64
	GenBatches  atomic.Int64
	GenBytes    atomic.Int64
	GenRequests atomic.Int64

	// Supervised-recovery activity inside generation runs.
	GenRetries   atomic.Int64
	GenRecovered atomic.Int64
}

// ObserveHeavy folds one admitted heavy-request duration into the
// smoothed estimate behind Retry-After.
func (m *Metrics) ObserveHeavy(d time.Duration) {
	for {
		old := m.heavyNanos.Load()
		next := int64(d)
		if old > 0 {
			next = old + (int64(d)-old)/8
		}
		if m.heavyNanos.CompareAndSwap(old, next) {
			return
		}
	}
}

// HeavyEWMA returns the smoothed heavy-request duration (0 before the
// first observation).
func (m *Metrics) HeavyEWMA() time.Duration {
	return time.Duration(m.heavyNanos.Load())
}

// NewMetrics returns a zeroed metric set with the clock started.
func NewMetrics() *Metrics {
	m := &Metrics{Start: time.Now(), routes: make(map[string]*RouteStats, len(routeNames))}
	for _, r := range routeNames {
		m.routes[r] = &RouteStats{}
	}
	return m
}

// Route returns the stats bucket for a known route label, or the "meta"
// bucket for anything unrecognized.
func (m *Metrics) Route(name string) *RouteStats {
	if rs, ok := m.routes[name]; ok {
		return rs
	}
	return m.routes["meta"]
}

// Observe records one finished request.
func (m *Metrics) Observe(route string, status int, d time.Duration) {
	rs := m.Route(route)
	rs.Requests.Add(1)
	rs.NanosSum.Add(int64(d))
	for {
		old := rs.NanosMax.Load()
		if int64(d) <= old || rs.NanosMax.CompareAndSwap(old, int64(d)) {
			break
		}
	}
	cls := status / 100
	if cls < 1 || cls > 5 {
		cls = 5
	}
	rs.Status[cls].Add(1)
}

// AddGenStats folds one generation stream's traffic and recovery
// counters in.
func (m *Metrics) AddGenStats(st dist.Stats) {
	m.GenRequests.Add(1)
	m.GenEdges.Add(st.EdgesGenerated)
	m.GenBatches.Add(st.Messages)
	m.GenBytes.Add(st.BytesSent)
	m.GenRetries.Add(st.TotalRetries())
	m.GenRecovered.Add(st.RecoveredRuns)
}

// WriteText renders the counters in Prometheus text exposition format.
func (m *Metrics) WriteText(w io.Writer, cache *SummaryCache, lim *Limiter, factors int) {
	fmt.Fprintf(w, "# TYPE kronserve_uptime_seconds gauge\n")
	fmt.Fprintf(w, "kronserve_uptime_seconds %g\n", time.Since(m.Start).Seconds())
	fmt.Fprintf(w, "# TYPE kronserve_factors_registered gauge\n")
	fmt.Fprintf(w, "kronserve_factors_registered %d\n", factors)
	fmt.Fprintf(w, "# TYPE kronlab_kernel_info gauge\n")
	fmt.Fprintf(w, "kronlab_kernel_info{impl=%q} 1\n", core.Kernel())

	names := make([]string, 0, len(m.routes))
	for name := range m.routes {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "# TYPE kronserve_requests_total counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "kronserve_requests_total{route=%q} %d\n", name, m.routes[name].Requests.Load())
	}
	fmt.Fprintf(w, "# TYPE kronserve_request_seconds_sum counter\n")
	for _, name := range names {
		fmt.Fprintf(w, "kronserve_request_seconds_sum{route=%q} %g\n", name,
			time.Duration(m.routes[name].NanosSum.Load()).Seconds())
	}
	fmt.Fprintf(w, "# TYPE kronserve_request_seconds_max gauge\n")
	for _, name := range names {
		fmt.Fprintf(w, "kronserve_request_seconds_max{route=%q} %g\n", name,
			time.Duration(m.routes[name].NanosMax.Load()).Seconds())
	}
	fmt.Fprintf(w, "# TYPE kronserve_responses_total counter\n")
	for _, name := range names {
		for cls := 1; cls <= 5; cls++ {
			if c := m.routes[name].Status[cls].Load(); c > 0 {
				fmt.Fprintf(w, "kronserve_responses_total{route=%q,code=\"%dxx\"} %d\n", name, cls, c)
			}
		}
	}

	fmt.Fprintf(w, "# TYPE kronserve_cache_hits_total counter\n")
	fmt.Fprintf(w, "kronserve_cache_hits_total %d\n", m.CacheHits.Load())
	fmt.Fprintf(w, "# TYPE kronserve_cache_misses_total counter\n")
	fmt.Fprintf(w, "kronserve_cache_misses_total %d\n", m.CacheMisses.Load())
	fmt.Fprintf(w, "# TYPE kronserve_summary_builds_total counter\n")
	fmt.Fprintf(w, "kronserve_summary_builds_total %d\n", m.SummaryBuilds.Load())
	fmt.Fprintf(w, "# TYPE kronserve_cache_evictions_total counter\n")
	fmt.Fprintf(w, "kronserve_cache_evictions_total %d\n", m.CacheEvictions.Load())
	fmt.Fprintf(w, "# TYPE kronserve_cache_entries gauge\n")
	fmt.Fprintf(w, "kronserve_cache_entries %d\n", cache.Len())
	fmt.Fprintf(w, "# TYPE kronserve_cache_bytes gauge\n")
	fmt.Fprintf(w, "kronserve_cache_bytes %d\n", cache.Bytes())

	fmt.Fprintf(w, "# TYPE kronserve_admission_rejected_total counter\n")
	fmt.Fprintf(w, "kronserve_admission_rejected_total %d\n", m.AdmissionRejected.Load())
	fmt.Fprintf(w, "# TYPE kronserve_inflight_requests gauge\n")
	fmt.Fprintf(w, "kronserve_inflight_requests %d\n", lim.Inflight())
	fmt.Fprintf(w, "# TYPE kronserve_queued_requests gauge\n")
	fmt.Fprintf(w, "kronserve_queued_requests %d\n", lim.Waiting())

	fmt.Fprintf(w, "# TYPE kronserve_gen_requests_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_requests_total %d\n", m.GenRequests.Load())
	fmt.Fprintf(w, "# TYPE kronserve_gen_edges_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_edges_total %d\n", m.GenEdges.Load())
	fmt.Fprintf(w, "# TYPE kronserve_gen_batches_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_batches_total %d\n", m.GenBatches.Load())
	fmt.Fprintf(w, "# TYPE kronserve_gen_bytes_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_bytes_total %d\n", m.GenBytes.Load())

	fmt.Fprintf(w, "# TYPE kronserve_heavy_seconds_ewma gauge\n")
	fmt.Fprintf(w, "kronserve_heavy_seconds_ewma %g\n", m.HeavyEWMA().Seconds())
	fmt.Fprintf(w, "# TYPE kronserve_gen_retries_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_retries_total %d\n", m.GenRetries.Load())
	fmt.Fprintf(w, "# TYPE kronserve_gen_recovered_total counter\n")
	fmt.Fprintf(w, "kronserve_gen_recovered_total %d\n", m.GenRecovered.Load())
}
