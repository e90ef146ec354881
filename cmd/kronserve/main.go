// Command kronserve runs the kronlab ground-truth & generation HTTP
// service: register factor graphs, query exact product analytics computed
// from cached factor summaries (the paper's sublinear formulas), and
// stream product edges from the distributed generator.
//
// Usage:
//
//	kronserve [flags]
//
//	-addr           listen address (default :8571)
//	-max-inflight   concurrent heavy requests (default GOMAXPROCS)
//	-max-queue      queued heavy requests before 429 (default 4×inflight)
//	-cache-mb       factor summary cache budget in MiB (default 256)
//	-timeout        per ground-truth request timeout (default 30s)
//	-gen-timeout    per generation stream timeout (default 5m)
//	-gen-retries    retry budget for generation runs (default 1; negative: zero retries)
//	-max-upload-mb  factor upload size cap in MiB (default 64)
//	-max-ranks      cap on the ranks= generation parameter (default 64)
//	-drain          graceful shutdown deadline after SIGTERM/SIGINT (default 15s)
//	-pprof          side listener address for net/http/pprof (default off)
//	-pprof-mutex    mutex profile sampling fraction (default 0 = off)
//	-pprof-block    block profile rate in ns blocked per sample (default 0 = off)
//
// -pprof serves the runtime profiling endpoints on a separate listener
// (own mux, never the service address), so profiles of a live server —
// including the engine's phase labels phase=expand|store|sink-flush — stay
// off the public surface. A generating rank is phase=expand, its sink calls
// included; phase=store is a rank blocked handing a batch to a stream
// consumer that is behind (a slow client). Point it at loopback, e.g. -pprof
// localhost:6060, then:
//
//	go tool pprof http://localhost:6060/debug/pprof/profile?seconds=10
//
// -pprof-mutex and -pprof-block arm the runtime's contention profiles
// (runtime.SetMutexProfileFraction / runtime.SetBlockProfileRate), which
// are off by default; with them set, /debug/pprof/mutex and
// /debug/pprof/block show where the freelist, the stream hand-offs and the
// async sink queues actually contend. A mutex
// fraction of 5 and a block rate of 10000 (10µs) are cheap enough to
// leave on for a whole contention hunt.
//
// On SIGTERM or SIGINT the server drains: new heavy requests get 503,
// in-flight generation streams are cancelled and finish with a clean
// X-Kronlab-Complete trailer, and the listener shuts down via
// http.Server.Shutdown bounded by -drain before the process exits.
//
// See README.md §Serving for the endpoint reference and a curl
// quickstart.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"kronlab/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8571", "listen address")
	maxInflight := flag.Int("max-inflight", 0, "concurrent heavy requests (0 = GOMAXPROCS)")
	maxQueue := flag.Int("max-queue", 0, "queued heavy requests before 429 (0 = 4×inflight)")
	cacheMB := flag.Int64("cache-mb", 256, "summary cache budget in MiB")
	timeout := flag.Duration("timeout", 30*time.Second, "ground-truth request timeout")
	genTimeout := flag.Duration("gen-timeout", 5*time.Minute, "generation stream timeout")
	genRetries := flag.Int("gen-retries", 1, "retry budget for generation runs (negative: zero retries, the first fault ends the stream)")
	uploadMB := flag.Int64("max-upload-mb", 64, "factor upload cap in MiB")
	maxRanks := flag.Int("max-ranks", 64, "cap on the ranks= generation parameter")
	drain := flag.Duration("drain", 15*time.Second, "graceful shutdown deadline after SIGTERM/SIGINT")
	pprofAddr := flag.String("pprof", "", "side listener address for net/http/pprof (empty = disabled)")
	pprofMutex := flag.Int("pprof-mutex", 0, "mutex profile sampling fraction, 1-in-N contention events (0 = off)")
	pprofBlock := flag.Int("pprof-block", 0, "block profile sampling rate in ns blocked per sample (0 = off)")
	flag.Parse()

	// Contention profiles are off by default in the runtime; arm them
	// before the engine spawns goroutines so the first request is already
	// covered. Cheap enough at modest fractions to leave on in a
	// contention hunt, but not free — hence opt-in flags, not defaults.
	if *pprofMutex > 0 {
		runtime.SetMutexProfileFraction(*pprofMutex)
	}
	if *pprofBlock > 0 {
		runtime.SetBlockProfileRate(*pprofBlock)
	}

	if *pprofAddr != "" {
		// Dedicated mux on a dedicated listener: the profiling surface is
		// opt-in and bindable to loopback, independent of -addr. Best
		// effort — a dead pprof listener is logged, not fatal.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		ps := &http.Server{Addr: *pprofAddr, Handler: pm, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			log.Printf("kronserve pprof listening on %s", *pprofAddr)
			if err := ps.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				log.Printf("kronserve pprof listener: %v", err)
			}
		}()
	}

	srv := serve.New(serve.Config{
		MaxInflight:    *maxInflight,
		MaxQueue:       *maxQueue,
		CacheBytes:     *cacheMB << 20,
		RequestTimeout: *timeout,
		GenTimeout:     *genTimeout,
		GenRetries:     *genRetries,
		MaxUploadBytes: *uploadMB << 20,
		MaxRanks:       *maxRanks,
	})
	hs := &http.Server{
		Addr:              *addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- hs.ListenAndServe() }()
	log.Printf("kronserve listening on %s", *addr)

	select {
	case err := <-errCh:
		log.Fatal(err)
	case <-ctx.Done():
	}

	// Drain: refuse new heavy work and cancel running generation streams
	// (they finish with a clean trailer), then let Shutdown wait for the
	// remaining handlers up to the deadline before cutting connections.
	log.Printf("kronserve draining (deadline %s)", *drain)
	srv.BeginShutdown()
	sctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := hs.Shutdown(sctx); err != nil {
		log.Printf("kronserve shutdown: %v; closing remaining connections", err)
		_ = hs.Close()
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("kronserve listener: %v", err)
	}
	log.Printf("kronserve stopped")
}
