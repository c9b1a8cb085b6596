// Command avstored is the long-running network daemon over a versioned
// array store: it owns one store directory exclusively and serves the
// full store API (create/drop, all insert and select forms, versions,
// branch/merge, reorganize, verify, stats, AQL) to many concurrent
// clients over HTTP — JSON for control, binary frames for array data.
// See the client package for the Go client and DESIGN.md "Service
// layer" for the protocol.
//
// Usage:
//
//	avstored -store DIR [-addr localhost:7421]
//	         [-cache-bytes N] [-parallelism N] [-durable=true]
//	         [-max-inflight N] [-request-timeout 60s] [-max-frame-bytes N]
//	         [-log-format text|json] [-slow-query 0] [-pprof]
//
// Durability is on by default: every commit is fsynced and startup runs
// crash recovery over the store (recovery counters are exposed at
// /metrics and through /v1/stats), so a SIGKILL or power cut mid-write
// never corrupts committed versions.
//
// Workload-aware reorganization (§IV-D) takes the workload from the
// caller, as the paper assumes it is known a priori: POST
// /v1/arrays/{name}/tune with {"workload": [...]} (or `avstore tune
// -addr URL -name A -spec ...`) re-lays the array out when the
// projected I/O savings reach 10%, and POST .../reorganize with policy
// "workload" rewrites unconditionally. Both ride the same crash-safe
// generation-commit protocol. JSON control bodies are bounded at 4 MiB
// (413 beyond).
//
// Observability: every request is traced end to end — the response
// echoes (or assigns) an AV-Trace-Id header, each request is logged as
// one structured log/slog line (trace_id, route, status, duration,
// bytes; -log-format picks text or json), and the last completed
// traces with their per-stage breakdowns are served at
// GET /debug/traces (?id=<trace-id> looks one up). -slow-query DURATION
// additionally logs any request slower than that budget at warning
// level with its stage breakdown inline. Stage-level latency and byte
// histograms for the select and commit pipelines, per-array cache hit
// ratios, and Go runtime health are all part of GET /metrics. -pprof
// exposes net/http/pprof under /debug/pprof/ (off by default; the
// profiles are mux-scoped to this daemon, nothing registers globally).
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it stops
// accepting connections, drains in-flight requests (up to the request
// timeout), then closes the store.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"arrayvers/internal/cliutil"
	"arrayvers/internal/core"
	"arrayvers/internal/server"
)

func main() {
	storeDir := flag.String("store", "", "store directory (required)")
	addr := flag.String("addr", "localhost:7421", "listen address")
	cacheBytes := flag.Int64("cache-bytes", core.DefaultCacheBytes, "decoded-chunk cache budget in bytes (0 disables)")
	parallelism := flag.Int("parallelism", 0, "hot-path worker pool size (0 = GOMAXPROCS, 1 = serial)")
	durability := flag.Bool("durable", true, "fsync every commit and run crash recovery at startup")
	maxInFlight := flag.Int("max-inflight", server.DefaultMaxInFlight, "concurrent request limit (excess answered 429)")
	requestTimeout := flag.Duration("request-timeout", server.DefaultRequestTimeout, "per-request handler timeout")
	maxFrameBytes := flag.Int64("max-frame-bytes", 0, "largest accepted wire frame payload (0 = 1 GiB)")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	slowQuery := flag.Duration("slow-query", 0, "log requests slower than this with their per-stage trace breakdown (0 disables)")
	pprofOn := flag.Bool("pprof", false, "expose net/http/pprof profiles under /debug/pprof/")
	flag.Parse()
	if *storeDir == "" {
		fmt.Fprintln(os.Stderr, "avstored: -store is required")
		os.Exit(2)
	}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	default:
		fmt.Fprintf(os.Stderr, "avstored: -log-format must be \"text\" or \"json\", got %q\n", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)
	if err := run(*storeDir, *addr, *cacheBytes, *parallelism, *durability, *maxInFlight, *requestTimeout, *maxFrameBytes, *slowQuery, *pprofOn, logger); err != nil {
		logger.Error("fatal", "err", err)
		os.Exit(1)
	}
}

func run(storeDir, addr string, cacheBytes int64, parallelism int, durability bool, maxInFlight int,
	requestTimeout time.Duration, maxFrameBytes int64,
	slowQuery time.Duration, pprofOn bool, logger *slog.Logger) error {
	opts := cliutil.StoreOptions(cacheBytes, parallelism, durability)
	store, err := core.Open(storeDir, opts)
	if err != nil {
		return err
	}
	defer store.Close()
	if rec := store.Recovery(); rec != (core.RecoveryStats{}) {
		logger.Info("crash recovery finished",
			"removed_files", rec.RemovedFiles,
			"truncated_files", rec.TruncatedFiles,
			"truncated_bytes", rec.TruncatedBytes,
			"dropped_versions", rec.DroppedVersions)
	}

	srv, err := server.New(server.Config{
		Store:          store,
		Log:            logger,
		MaxInFlight:    maxInFlight,
		RequestTimeout: requestTimeout,
		MaxFrameBytes:  maxFrameBytes,
		SlowQuery:      slowQuery,
	})
	if err != nil {
		return err
	}
	handler := srv.Handler()
	if pprofOn {
		// mux-scoped pprof: register the handlers explicitly instead of
		// relying on the package's DefaultServeMux side effects, so the
		// profiles exist only behind this flag
		mux := http.NewServeMux()
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		logger.Info("pprof enabled", "path", "/debug/pprof/")
	}
	httpSrv := &http.Server{
		Addr:              addr,
		Handler:           handler,
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"store", storeDir,
			"addr", "http://"+addr,
			"cache_bytes", cacheBytes,
			"max_inflight", maxInFlight)
		errCh <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errCh:
		// listener failed before any signal
		return err
	case <-ctx.Done():
	}
	logger.Info("signal received, draining in-flight requests")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), requestTimeout+5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil {
		logger.Warn("shutdown", "err", err)
	}
	if err := <-errCh; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	logger.Info("closing store")
	return store.Close()
}
