// Package serve implements kronserve, the HTTP ground-truth and
// generation service over the repo's Kronecker machinery. The paper's
// central economics make such a service viable: every supported analytic
// of a product C = A ⊗ B (or (A+I) ⊗ (B+I)) has closed form in factor
// quantities, so queries are answered from small cached factor summaries
// in microseconds — C itself is only ever materialized as a stream, never
// in server memory.
//
// The subsystem has four parts:
//
//   - a factor Registry, content-addressed by canonical hash
//     (POST/GET /factors);
//   - a SummaryCache of per-factor analytics (degrees, triangles, hop
//     data) behind singleflight deduplication and a byte-budgeted LRU
//     (GET /gt/{a}/{b}/{property});
//   - a generation endpoint streaming product edges as NDJSON or the
//     binary record format of internal/store, produced by the dist
//     1D/2D generator with bounded concurrency (GET /gen/{a}/{b}/edges);
//   - chain variants of both: GET /gt/{chain}/{property} and
//     GET /gen/{chain}/edges take a comma-separated factor key list
//     (optionally power=k) and serve the k-factor product A₁⊗…⊗Aₖ
//     through the same closed-form laws and the same streaming engine;
//   - an operational surface: semaphore admission control with bounded
//     queueing and 429s, request timeouts threaded through context, and
//     /healthz + /metrics.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"kronlab/internal/core"
	"kronlab/internal/dist/transport/wire"
)

// Config tunes a Server. Zero values select the documented defaults.
type Config struct {
	// MaxInflight bounds concurrently executing heavy requests
	// (ground-truth queries and generation streams). Default GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds heavy requests waiting for a slot; beyond it the
	// server answers 429 immediately. Default 4×MaxInflight.
	MaxQueue int
	// CacheBytes budgets the factor summary LRU. Default 256 MiB.
	CacheBytes int64
	// RequestTimeout bounds one ground-truth request including queueing.
	// Generation streams are exempt (they are bounded by client
	// disconnect and context cancellation instead). Default 30s.
	RequestTimeout time.Duration
	// MaxUploadBytes bounds a factor registration body. Default 64 MiB.
	MaxUploadBytes int64
	// MaxRanks caps the ranks= parameter of generation requests.
	// Default 64.
	MaxRanks int
	// GenTimeout bounds one generation stream end to end; the deadline
	// propagates as context.WithTimeout into the dist engine, which tears
	// the expander ranks down when it fires. Default 5m.
	GenTimeout time.Duration
	// GenRetries is the retry budget passed to generation runs
	// (dist.Recovery.MaxRetries): a rank crash inside the engine is
	// replayed exactly-once instead of tearing the stream.
	// Default 1; negative means zero retries: the first fault is returned
	// unchanged and ends the stream.
	GenRetries int
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 4 * c.MaxInflight
	}
	if c.CacheBytes <= 0 {
		c.CacheBytes = 256 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxUploadBytes <= 0 {
		c.MaxUploadBytes = 64 << 20
	}
	if c.MaxRanks <= 0 {
		c.MaxRanks = 64
	}
	if c.GenTimeout <= 0 {
		c.GenTimeout = 5 * time.Minute
	}
	if c.GenRetries == 0 {
		c.GenRetries = 1
	} else if c.GenRetries < 0 {
		c.GenRetries = 0
	}
	return c
}

// Server is the kronserve HTTP handler. Create with New; it is safe for
// concurrent use and carries no per-request state.
type Server struct {
	cfg     Config
	reg     *Registry
	cache   *SummaryCache
	lim     *Limiter
	metrics *Metrics
	mux     *http.ServeMux

	// drain closes when BeginShutdown is called: new heavy requests are
	// refused with 503 and in-flight generation streams are cancelled so
	// they terminate with a clean trailer inside the drain deadline.
	drain     chan struct{}
	drainOnce sync.Once
}

// New builds a Server from cfg (zero value: all defaults).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	m := NewMetrics()
	s := &Server{
		cfg:     cfg,
		reg:     NewRegistry(),
		cache:   NewSummaryCache(cfg.CacheBytes, m),
		lim:     NewLimiter(cfg.MaxInflight, cfg.MaxQueue),
		metrics: m,
		mux:     http.NewServeMux(),
		drain:   make(chan struct{}),
	}
	s.mux.HandleFunc("GET /healthz", s.instrument("meta", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("meta", s.handleMetrics))
	s.mux.HandleFunc("POST /factors", s.instrument("factors", s.handleRegister))
	s.mux.HandleFunc("GET /factors", s.instrument("factors", s.handleListFactors))
	s.mux.HandleFunc("GET /factors/{hash}", s.instrument("factors", s.handleGetFactor))
	// /gt and /gen each take the factor list in two spellings — {a}/{b},
	// or {chain}: a comma-separated key list (with optional power=k) — so
	// the two-segment chain patterns coexist with the three-segment
	// two-factor ones, and each pair of patterns shares one handler.
	gt := s.instrument("gt", s.admitted(s.timed(s.handleGroundTruth)))
	gen := s.instrument("gen", s.admitted(s.genTimed(s.handleGenerate)))
	s.mux.HandleFunc("GET /gt/{a}/{b}/{property}", gt)
	s.mux.HandleFunc("GET /gt/{chain}/{property}", gt)
	s.mux.HandleFunc("GET /gen/{a}/{b}/edges", gen)
	s.mux.HandleFunc("GET /gen/{chain}/edges", gen)
	return s
}

// BeginShutdown puts the server into drain mode: heavy requests are
// refused with 503 and running generation streams are cancelled (their
// handlers finish with a clean trailer, so http.Server.Shutdown can
// complete inside its deadline). Light endpoints keep answering so
// health checks observe the drain. Safe to call more than once.
func (s *Server) BeginShutdown() {
	s.drainOnce.Do(func() { close(s.drain) })
}

// Draining reports whether BeginShutdown has been called.
func (s *Server) Draining() bool {
	select {
	case <-s.drain:
		return true
	default:
		return false
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the live counters (used by tests and cmd/kronserve).
func (s *Server) Metrics() *Metrics { return s.metrics }

// statusRecorder captures the response code for instrumentation.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (sr *statusRecorder) WriteHeader(code int) {
	sr.status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Flush passes http.Flusher through the wrapper. Without it the recorder
// hides the underlying connection's Flusher from handlers, so generation
// streams buffer server-side until the run completes instead of reaching
// the client incrementally.
func (sr *statusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// instrument wraps a handler with request counting and latency tracking
// under the given route label.
func (s *Server) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sr := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		h(sr, r)
		s.metrics.Observe(route, sr.status, time.Since(start))
	}
}

// admitted gates a handler behind the admission controller: a draining
// server refuses outright, a full queue means 429 now (with a Retry-After
// computed from observed run durations), not an unbounded wait. Admitted
// requests feed their duration back into the estimator.
func (s *Server) admitted(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.Draining() {
			s.metrics.AdmissionRejected.Add(1)
			w.Header().Set("Retry-After", s.retryAfterSeconds())
			writeError(w, http.StatusServiceUnavailable, "server shutting down")
			return
		}
		if err := s.lim.Acquire(r.Context()); err != nil {
			s.metrics.AdmissionRejected.Add(1)
			if errors.Is(err, ErrBusy) {
				w.Header().Set("Retry-After", s.retryAfterSeconds())
				writeError(w, http.StatusTooManyRequests, "server at capacity, retry later")
			} else {
				writeError(w, statusForContextErr(err), "cancelled while queued: %v", err)
			}
			return
		}
		defer s.lim.Release()
		start := time.Now()
		h(w, r)
		s.metrics.ObserveHeavy(time.Since(start))
	}
}

// retryAfterSeconds estimates when a retried heavy request would find a
// free slot: the smoothed heavy-request duration, scaled by how many
// requests are already queued ahead per slot. Clamped to [1, 60]s; with
// no observations yet it falls back to the old fixed 1s.
func (s *Server) retryAfterSeconds() string {
	est := s.metrics.HeavyEWMA()
	if est <= 0 {
		return "1"
	}
	depth := float64(s.lim.Waiting()+1) / float64(s.cfg.MaxInflight)
	secs := math.Ceil(est.Seconds() * math.Max(depth, 1))
	if secs < 1 {
		secs = 1
	} else if secs > 60 {
		secs = 60
	}
	return strconv.Itoa(int(secs))
}

// timed bounds a handler by the configured request timeout.
func (s *Server) timed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		h(w, r.WithContext(ctx))
	}
}

// genTimed bounds a generation stream by Config.GenTimeout and cancels it
// when the server starts draining — the context reaches the dist engine,
// which tears the expander ranks down, so the handler returns (with its
// completion trailer) instead of holding http.Server.Shutdown open.
func (s *Server) genTimed(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.GenTimeout)
		defer cancel()
		done := make(chan struct{})
		defer close(done)
		go func() {
			select {
			case <-s.drain:
				cancel()
			case <-done:
			}
		}()
		h(w, r.WithContext(ctx))
	}
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         status,
		"uptime_seconds": time.Since(s.metrics.Start).Seconds(),
		"factors":        s.reg.Len(),
		"inflight":       s.lim.Inflight(),
		"queued":         s.lim.Waiting(),
		// The wire protocol this build speaks as a cluster peer, so an
		// operator can spot a version-skewed deployment before the
		// transport handshake refuses it.
		"transport_protocol": wire.Version,
		// The expansion kernel this host runs; rates compare only next to it.
		"kernel": core.Kernel(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.WriteText(w, s.cache, s.lim, s.reg.Len())
}

// writeJSON renders v with a status code; encoding errors past the header
// are unrecoverable and ignored.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

// writeError renders a JSON error body.
func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func statusForContextErr(err error) int {
	// 503 for server-imposed deadlines; client cancels get 408.
	if errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusRequestTimeout
}
