// Command gpad is the GPU performance advisor daemon: a long-running
// HTTP JSON service in front of the Figure 2 pipeline, built on the
// shared batch engine (gpa.NewEngine / internal/service). Every
// request is resolved through a content-addressed artifact store and a
// singleflight table before it is allowed to cost a simulation, so N
// identical concurrent requests cost one simulation and repeated
// requests cost none; a bounded worker pool caps concurrent
// simulations machine-wide, and -max-queue turns the daemon into a
// load-shedding server that answers 503 queue_full instead of queueing
// without bound. The engine caches only the responses it serves. A
// submitted kernel is memoized in front of it by a byte-bounded kernel
// cache keyed by source and launch: assembled once, which is when the
// assemble stage is timed, with its program and module hash built once
// behind the kernel. A bundled row is built once per process.
//
// Admission is tenant-fair: every request may carry an X-Tenant-Id
// header (absent or unsafe IDs share the "default" tenant), and
// -qos-config assigns tenants deficit-weighted round-robin weights and
// token-bucket quotas, so one flooding tenant cannot starve the rest.
// Work runs in two priority lanes — interactive (advise/profile) ahead
// of batch (batch/sweep), with the config's interactiveReserve worker
// slots batch can never occupy. Over-quota requests answer 429
// quota_exceeded and arrivals past -max-queue answer 503 queue_full;
// every shed response carries a computed, jittered Retry-After.
// Tenant IDs never affect results: identical requests from different
// tenants share one cached simulation, each billed to its own tenant.
//
// Responses follow the versioned structured result schema
// (gpa.ResultSchemaVersion): schemaVersion, structured advice entries,
// the profile digest, the architecture key, and run timing, with the
// legacy Figure 8 text riding along in "report". Every body gpad
// writes is compact JSON ending in one newline — json.Encoder's output,
// which a result's per-request head and stored tail reproduce byte for
// byte (gpa-result/3; /2 carried the same values indented). Failures
// map the typed error taxonomy (gpa.ErrUnknownArch, ErrBadKernel,
// ErrAssemble, ErrCanceled, ErrQueueFull, ...) to HTTP status codes
// with stable machine-readable "code" fields. A /v1/advise or
// /v1/profile body is read once and decoded in one forward pass when it
// is in the plain subset clients send; any other body (a case-variant
// or unknown key, null, a \u escape, non-ASCII text, a fraction,
// "binary", trailing data, a read error) goes to encoding/json, which
// answers it exactly as it always has.
//
// Cancellation runs end-to-end: a client that disconnects cancels its
// queued or in-flight simulation (coalesced duplicates only detach the
// leaving waiter), per-job deadlines come from "timeoutMs" or
// -job-timeout, and SIGTERM drains gracefully — stop accepting, cancel
// queued jobs, give in-flight simulations -drain-timeout to finish,
// then cancel the stragglers.
//
// Endpoints:
//
//	POST /v1/advise   Advise one kernel (SASS text, CUBIN blob, or a
//	                  bundled Table 3 benchmark by name). Returns the
//	                  structured ranked advice, the rendered Figure 8
//	                  report text (byte-identical between cold runs
//	                  and cache hits), cycles, the cache key, and a
//	                  stable profile digest for drift checks.
//	POST /v1/profile  Run the sampling profiler only; returns the
//	                  profile JSON for offline analysis.
//	POST /v1/batch    Fan a list of requests (mixed kinds: advise,
//	                  profile, measure) through the engine at once.
//	POST /v1/sweep    Advise one kernel on several architecture models
//	                  ("archs": ["v100","t4"]; empty = all).
//	GET  /v1/archs    List the registered GPU architecture models.
//	GET  /healthz     Liveness probe: always 200 while serving, with
//	                  build info, uptime, and artifact-store health
//	                  (status "degraded" when -store-dir stops
//	                  accepting writes).
//	GET  /metrics     Prometheus text exposition: every /statsz
//	                  counter (gpa_engine_*), per-stage pipeline
//	                  latency histograms (gpa_stage_duration_seconds),
//	                  per-route request counters keyed by stable error
//	                  code (gpa_http_requests_total), and Go runtime
//	                  gauges.
//	GET  /statsz      Engine counters: hits, misses, coalesced,
//	                  canceled, shed, inflight, runs,
//	                  the summed work records of this engine's
//	                  simulations — poolGets/poolHits (state-arena
//	                  reuse) and ffPeriodsDetected/ffCyclesSkipped/
//	                  ffFallbacks (steady-state memoization) —
//	                  and the artifact-store counters: sims,
//	                  stageServed, structureBuilds (one per advice
//	                  computed), stageHits/Misses/
//	                  Evictions (the in-memory stage LRUs, which
//	                  -cache-entries bounds), storeHits/Misses/
//	                  Puts/Corrupt/Errors (the -store-dir disk store)
//	                  and stageDecodes (stage payloads decoded into
//	                  structs; serving decodes none, whatever the
//	                  endpoint and the tier),
//	                  and panics (runs that panicked and were
//	                  contained: only their own waiters got a 500).
//	                  Also served at /v1/statsz.
//
// Every request carries a trace ID: X-Request-Id is accepted (or a
// random one minted), echoed in the response header and the result
// body, and attached to the request's structured log line
// (-log-format text|json). Trace IDs are transport-level only — never
// part of the cache digest or any stage key — so traced requests
// still coalesce and cache normally. -pprof-addr serves
// net/http/pprof on a separate opt-in listener.
//
// The simulator is deterministic, so gpad's responses are a pure
// function of the request: two deployments answering the same request
// must return the same profileDigest, which makes the cache safe and
// the service horizontally scalable behind a dumb load balancer.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registered on DefaultServeMux, served only on -pprof-addr
	"os"
	"os/signal"
	"syscall"
	"time"

	"gpa"
)

// Connection timeouts. They bound what a client can hold open without
// sending (a slow-loris header or body, an idle keep-alive); they are
// constants because no deployment has needed another value.
const (
	readHeaderTimeout = 10 * time.Second
	// readTimeout covers the whole request, headers and body: the largest
	// body (maxBodyBytes) at a slow-link 256 KB/s, rounded up.
	readTimeout = 60 * time.Second
	// idleTimeout is how long a keep-alive connection may sit between
	// requests (without it, ReadTimeout would be reused for this).
	idleTimeout = 2 * time.Minute
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	workers := flag.Int("workers", 0, "max concurrent simulations (0 = GOMAXPROCS)")
	cacheEntries := flag.Int("cache-entries", 0,
		"artifacts kept in memory per pipeline stage, LRU (0 = 512; negative = none: "+
			"repeats are served from -store-dir or re-run)")
	maxQueue := flag.Int("max-queue", 0,
		"max jobs waiting for a worker before shedding with 503 queue_full (0 = unbounded)")
	jobTimeout := flag.Duration("job-timeout", 0,
		"default per-job deadline (0 = none; requests override with timeoutMs)")
	drainTimeout := flag.Duration("drain-timeout", 10*time.Second,
		"how long in-flight jobs get to finish on shutdown before being canceled")
	storeDir := flag.String("store-dir", "",
		"persistent per-stage artifact store directory: a restarted gpad starts warm "+
			"from it, and corrupt blobs are recomputed, never served (empty = in-memory only)")
	qosConfig := flag.String("qos-config", "",
		"tenant admission policy JSON file: per-tenant DWRR weights and token-bucket "+
			"quotas, the interactive-lane reserve, and the tenant bound "+
			"(empty = one equal-weight default tenant, nothing metered)")
	logFormat := flag.String("log-format", "text",
		"request/lifecycle log encoding: text (key=value) or json (one object per line)")
	logLevel := flag.String("log-level", "info",
		"minimum log level: debug, info, warn, error (scrape endpoints log at debug)")
	pprofAddr := flag.String("pprof-addr", "",
		"serve net/http/pprof on this address (empty = disabled); keep it loopback-only")
	flag.Parse()

	var level slog.Level
	if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
		fmt.Fprintln(os.Stderr, "gpad: bad -log-level:", err)
		os.Exit(2)
	}
	hopts := &slog.HandlerOptions{Level: level}
	var handler slog.Handler
	switch *logFormat {
	case "text":
		handler = slog.NewTextHandler(os.Stderr, hopts)
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, hopts)
	default:
		fmt.Fprintln(os.Stderr, "gpad: bad -log-format (want text or json):", *logFormat)
		os.Exit(2)
	}
	logger := slog.New(handler)

	var st *gpa.Store
	if *storeDir != "" {
		var err error
		if st, err = gpa.OpenStore(*storeDir); err != nil {
			fmt.Fprintln(os.Stderr, "gpad:", err)
			os.Exit(1)
		}
	}
	qos, err := loadQoSConfig(*qosConfig)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gpad: bad qos config:", err)
		os.Exit(2)
	}
	eng := gpa.NewEngine(&gpa.EngineOptions{
		Workers:        *workers,
		CacheEntries:   *cacheEntries,
		MaxQueue:       *maxQueue,
		DefaultTimeout: *jobTimeout,
		Store:          st,
		QoS:            qos,
	})
	srv := &http.Server{
		Addr:              *addr,
		Handler:           newServerCfg(serverConfig{engine: eng, store: st, logger: logger}),
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
		// No WriteTimeout: it runs from the end of the request headers
		// to the end of the response, handler time included, and sweeps
		// and cold batches legitimately run for minutes. Neither the
		// jobs (timeoutMs and -job-timeout default to none) nor the
		// write is bounded; what bounds a slow reader's cost is that a
		// response is written after its jobs release their worker
		// slots, so a stalled writer holds one goroutine and one
		// connection until the client reads or leaves
		// (TestSlowClientsHoldNoWorkerSlot).
	}

	if *pprofAddr != "" {
		go func() {
			logger.Info("pprof serving", "addr", *pprofAddr)
			// DefaultServeMux carries only the pprof handlers; the API mux
			// above is separate, so profiling exposure is opt-in per address.
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				logger.Warn("pprof server exited", "err", err)
			}
		}()
	}

	cacheDesc := "disabled"
	switch {
	case *cacheEntries == 0:
		cacheDesc = "512 entries per stage"
	case *cacheEntries > 0:
		cacheDesc = fmt.Sprintf("%d entries per stage", *cacheEntries)
	}
	storeDesc := "none"
	if *storeDir != "" {
		storeDesc = *storeDir
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logger.Info("gpad: serving", "addr", *addr, "workers", eng.Stats().Workers,
		"cache", cacheDesc, "store", storeDesc)

	select {
	case err := <-errc:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "gpad:", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		// Graceful drain: stop accepting, cancel queued jobs, give
		// in-flight simulations drainTimeout to finish, then cancel
		// them too (the simulator's cancel checkpoints make the cancel
		// land promptly). Engine and HTTP server drain concurrently —
		// handlers blocked on queued jobs return as soon as the engine
		// abandons those jobs.
		logger.Info("gpad: draining", "deadline", drainTimeout.String())
		drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		engErr := make(chan error, 1)
		go func() { engErr <- eng.Shutdown(drainCtx) }()
		if err := srv.Shutdown(drainCtx); err != nil {
			logger.Warn("gpad: http shutdown", "err", err)
		}
		if err := <-engErr; err != nil {
			logger.Warn("gpad: engine shutdown", "err", err)
		}
		// The engine has drained: nothing reads or appends any more.
		if st != nil {
			if err := st.Close(); err != nil {
				logger.Warn("gpad: store close", "err", err)
			}
		}
		logger.Info("gpad: shutdown complete")
	}
}
