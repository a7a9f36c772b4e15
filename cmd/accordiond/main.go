// Command accordiond is the long-running Accordion simulation service:
// an HTTP/JSON daemon that serves Monte-Carlo population, Pareto-scan,
// and fault-attribution queries concurrently from one warm process, so
// repeated queries share the memoized model caches (Cholesky factors,
// reference runs, representative chips, measured fronts) instead of
// paying cold-start for every question.
//
// Usage:
//
//	accordiond [-addr HOST:PORT] [-queue N] [-workers N] [-j N]
//	           [-retain N] [-retry-after DUR] [-drain-timeout DUR]
//	           [-slo-p99 DUR] [-slo-error-rate F] [-telemetry text|json]
//	           [-history DIR] [-history-batch N]
//	accordiond -load URL [-load-requests N] [-load-concurrency N]
//	           [-load-distinct N] [-load-experiment ID] [-load-chips N]
//	           [-load-overflow N] [-load-p99-max DUR] [-load-out FILE]
//
// Endpoints (see internal/service for the wire schema):
//
//	POST /run              submit a request and wait for its response
//	POST /jobs             submit without waiting (202 + job status)
//	GET  /jobs/<id>        job status, timings, provenance manifest
//	GET  /jobs/<id>/result a completed job's response bytes
//	GET  /healthz          liveness, drain state, SLO readiness
//	GET  /statusz          HTML operator dashboard
//	GET  /watch            live event stream (Server-Sent Events)
//	GET  /telemetryz       telemetry snapshot (JSON)
//	GET  /metricsz         telemetry snapshot (Prometheus text)
//	GET  /eventsz          domain event ring (NDJSON)
//	GET  /historyz         run-history records (JSON; ?format=html|text)
//
// Backpressure: the job queue is bounded (-queue). When it is full,
// submissions are answered 429 with a Retry-After header instead of
// queueing into unbounded latency; the advertised backoff is derived
// from the rolling service-time window (queue drain rate) once the
// daemon has a minute of traffic, and falls back to -retry-after cold.
// Identical in-flight or retained requests coalesce onto one job and
// cost no slot. Responses are deterministic: the same request body
// always yields byte-identical response bytes, whatever the
// concurrency.
//
// Run history: -history DIR appends one record to DIR/records.ndjson
// per -history-batch completed jobs (and a final partial batch at
// drain), each carrying a full telemetry snapshot — rolling-window
// percentiles, cache hit rates, SLO burn — so `accordionhist check`
// can gate a deployment's service metrics against the store the
// previous builds wrote. GET /historyz serves the same records live.
//
// SLO tracking: -slo-p99 and -slo-error-rate set budgets against the
// rolling 1-minute latency window. The burn-rate gauges
// service.slo.{p99,error}_burn_milli report the observation in
// milli-units of the budget (1000 = exactly at target); past 1000,
// /healthz degrades to 503 so load balancers drain the instance.
//
// On SIGINT/SIGTERM the daemon drains: new work is refused (503), the
// workers finish every queued and running job within -drain-timeout,
// and only then does the process exit.
//
// -load turns the same binary into a stdlib-only load generator (used
// by scripts/bench_service.sh and the CI service-smoke job): it fires
// a concurrent request sweep, checks backpressure and byte-identical
// responses, and writes a BENCH_service.json with throughput and
// p50/p95/p99 latency plus the server's cache hit rates.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/service"
	"repro/internal/telemetry"
	"repro/internal/telemetry/events"
)

var (
	addr         = flag.String("addr", "localhost:8344", "listen address for the HTTP service")
	queueDepth   = flag.Int("queue", 16, "bounded job-queue depth; overflow is answered 429")
	workers      = flag.Int("workers", 0, "job worker goroutines (0 = GOMAXPROCS)")
	poolWidth    = flag.Int("j", 0, "worker-pool width for model sweeps inside a job (0 = GOMAXPROCS)")
	retain       = flag.Int("retain", 64, "completed jobs kept addressable for /jobs/<id> and coalescing (negative = none)")
	retryAfter   = flag.Duration("retry-after", time.Second, "minimum client backoff advertised on 429/503 responses")
	drainTimeout = flag.Duration("drain-timeout", 60*time.Second, "graceful-shutdown deadline for in-flight jobs")
	sloP99       = flag.Duration("slo-p99", 0, "rolling-p99 latency budget; past it /healthz degrades (0 = off)")
	sloErrRate   = flag.Float64("slo-error-rate", 0, "rolling error-rate budget, a fraction in (0,1]; past it /healthz degrades (0 = off)")
	histDir      = flag.String("history", "", "append run-history records to this store directory (empty = off)")
	histBatch    = flag.Int("history-batch", 16, "completed jobs per appended history record")
	load         = newLoadFlags(flag.CommandLine)
	obsFlags     = obs.Register(flag.CommandLine, "telemetry")
)

func main() {
	flag.Parse()
	fail := func(code int, format string, args ...any) {
		fmt.Fprintf(os.Stderr, "accordiond: "+format+"\n", args...)
		os.Exit(code)
	}
	if flag.NArg() > 0 {
		fail(2, "unexpected arguments %v", flag.Args())
	}

	if load.url != "" {
		if err := load.run(); err != nil {
			fail(1, "load: %v", err)
		}
		return
	}

	switch {
	case *queueDepth < 1:
		fail(2, "-queue must be at least 1, got %d", *queueDepth)
	case *workers < 0:
		fail(2, "-workers must be non-negative (0 = GOMAXPROCS), got %d", *workers)
	case *poolWidth < 0:
		fail(2, "-j must be non-negative (0 = GOMAXPROCS), got %d", *poolWidth)
	case *sloP99 < 0:
		fail(2, "-slo-p99 must be non-negative, got %s", *sloP99)
	case *sloErrRate < 0 || *sloErrRate > 1:
		fail(2, "-slo-error-rate must be a fraction in [0,1], got %g", *sloErrRate)
	case *histBatch < 1:
		fail(2, "-history-batch must be at least 1, got %d", *histBatch)
	}
	parallel.SetWorkers(*poolWidth)

	run, err := obsFlags.Start("accordiond")
	if err != nil {
		fail(2, "%v", err)
	}
	// A service wants its ops surface live from the first request:
	// telemetry recording and the domain-event ring are always on (the
	// -telemetry flag only controls the shutdown dump to stderr).
	telemetry.SetEnabled(true)
	events.SetEnabled(true)

	slo := newSLOTracker(*sloP99, *sloErrRate)
	cfg := service.Config{
		QueueDepth: *queueDepth,
		Workers:    *workers,
		Retain:     *retain,
		RetryAfter: *retryAfter,
		Now:        time.Now,
	}
	if slo.enabled() {
		cfg.ReadyCheck = slo.Ready
	}
	var recorder *historyRecorder
	if *histDir != "" {
		recorder = newHistoryRecorder(*histDir, *histBatch)
		cfg.OnJobDone = recorder.jobDone
	}
	srv := service.New(cfg)

	mux := srv.Mux()
	obs.Mount(mux)
	mux.Handle("GET /statusz", statuszHandler(srv, slo))
	mux.Handle("GET /watch", watchHandler())
	if recorder != nil {
		mux.Handle("GET /historyz", history.Handler(recorder.store))
	} else {
		mux.Handle("GET /historyz", history.DisabledHandler())
	}

	// The service core spawns no goroutines; the daemon owns them all.
	workerCtx, stopWorkers := context.WithCancel(context.Background())
	defer stopWorkers()
	for i := 0; i < srv.Workers(); i++ {
		go srv.Worker(workerCtx)
	}
	go slo.run(workerCtx, time.Second)
	if recorder != nil {
		go recorder.run(workerCtx)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: mux}
	listenErr := make(chan error, 1)
	go func() { listenErr <- httpSrv.ListenAndServe() }()

	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "accordiond: serving on http://%s (queue %d, %d workers, retain %d)\n",
		*addr, *queueDepth, srv.Workers(), *retain)

	select {
	case err := <-listenErr:
		run.Exit(1, err)
	case <-sigCtx.Done():
	}
	stop()

	fmt.Fprintf(os.Stderr, "accordiond: draining (%d in flight, deadline %s)\n", srv.Inflight(), *drainTimeout)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	code := 0
	// Drain the job queue first — new submissions now get 503 — then
	// close the HTTP side so in-flight handlers finish writing.
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "accordiond: drain: %v\n", err)
		code = 1
	}
	if recorder != nil {
		// Every job is now terminal; land the partial batch so short
		// sessions still leave a record.
		recorder.flush()
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "accordiond: http shutdown: %v\n", err)
		code = 1
	}
	if err := <-listenErr; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "accordiond: listener: %v\n", err)
		code = 1
	}
	for _, err := range run.Finish(nil) {
		fmt.Fprintf(os.Stderr, "accordiond: %v\n", err)
	}
	fmt.Fprintln(os.Stderr, "accordiond: drained, exiting")
	os.Exit(code)
}
