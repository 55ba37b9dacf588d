// Command qisimd serves QIsim's analyses over HTTP/JSON: a bounded job
// queue feeding a worker pool that drives the deterministic simulation
// entry points, a content-addressed result cache, and Prometheus metrics.
//
// Usage:
//
//	qisimd [-addr :8080] [-workers n] [-queue 64] [-cache-entries 256]
//	       [-job-timeout d] [-drain-timeout 30s] [-data-dir dir]
//	       [-tenant-quota n] [-pprof addr] [-log-level info] [-log-format text]
//	       [-role standalone|coordinator|worker] [-coordinator-url url]
//	       [-worker-id id] [-lease-ttl 15s] [-unit-shards 16]
//	       [-spot-check 0.1] [-chaos-spec spec.json]
//
// Roles (see DESIGN.md "Distributed execution"):
//
//   - standalone (default): every job runs in-process.
//   - coordinator: jobs are split into leased work units dispatched across
//     the fleet workers that claim them, with held claims (an idle worker's
//     claim waits for work), heartbeat renewal, retry with backoff, work
//     stealing, and graceful degradation to the local lane while no worker
//     has been heard from for 2×lease-ttl. Serves /v1/dist/{claim,renew,
//     report} for workers.
//     Merged results are byte-identical to a standalone run.
//   - worker: runs the normal server plus a claim→execute→report loop
//     against -coordinator-url. Its first claim admits it to the fleet, and
//     it keeps claiming until the coordinator answers, so it may start
//     before its coordinator.
//
// API:
//
//	POST   /v1/jobs            {"kind": "surface.mc", "params": {...}}
//	GET    /v1/jobs            list jobs (?kind=&state=&tenant=&limit=)
//	GET    /v1/jobs/{id}       job state, live progress, result or typed error
//	DELETE /v1/jobs/{id}       cancel a job
//	GET    /v1/jobs/{id}/events SSE stream: state changes + partial frontiers
//	GET    /v1/jobs/{id}/trace finished job's span tree (?format=json|chrome|tree)
//	GET    /v1/results/{key}   cached result body (byte-exact replay)
//	GET    /v1/fleet/status    coordinator's fleet view (?format=json|tree)
//	GET    /v1/debug/flight    flight-recorder ring (?format=json|chrome|tree)
//	POST   /v1/dist/claim      (coordinator) a worker's claim; the first admits it
//	POST   /v1/dist/renew      (coordinator) a lease heartbeat
//	POST   /v1/dist/report     (coordinator) a finished unit's shard states
//	GET    /metrics            Prometheus text exposition
//	GET    /healthz            liveness: 200 serving / 503 draining
//	GET    /readyz             readiness: 503 recovering / draining / saturated
//
// Multi-tenancy: clients may stamp submissions with an X-QIsim-Tenant
// header. -tenant-quota caps each tenant's concurrently in-flight jobs; a
// submission over quota is refused with 429 and error class
// "quota-exceeded". Tenants are attribution only — results stay
// content-addressed, so identical work dedupes across tenants.
//
// Observability: every executed job records a bounded span trace (queue
// wait, executor, per-shard, merge, checkpoint spans) served by the trace
// endpoint and folded into the qisimd_stage_seconds{stage} histogram
// (stage = span name). -pprof exposes net/http/pprof on
// a SEPARATE listener so profiling traffic never shares the API port.
// Logs are structured (log/slog) and stamped with job/trace/span IDs.
//
// Fleet observability (see DESIGN.md "Fleet observability"): every route
// records RED series (qisimd_http_requests_total / _request_seconds by
// route pattern); every unit report carries the worker's telemetry (units
// executed, unit seconds, client-side chaos injections), which the
// coordinator serves as qisimd_fleet_* series and in /v1/fleet/status;
// an always-on flight recorder, a tracer of events, keeps the last 4096
// admission/lease/retry/quarantine/chaos/panic events, served by
// /v1/debug/flight in the trace endpoint's formats and persisted as
// trace JSON to <data-dir>/flight-last.json by the panic backstop.
//
// SIGINT/SIGTERM triggers a graceful drain: the listener stops accepting,
// in-flight jobs are cancelled and finish through the partial-result path
// (their snapshots flagged "truncated"), and the process exits 0 once the
// pool has committed those partials (or -drain-timeout expires).
// SIGQUIT dumps the flight ring (as its text tree) and all goroutine stacks
// to stderr and keeps serving — the live-debugging probe, not a shutdown.
//
// With -data-dir the daemon is crash-safe: accepted jobs are write-ahead-
// logged to <dir>/journal.wal and Monte-Carlo runs checkpoint their
// committed shard prefix under <dir>/checkpoints. On boot the journal is
// replayed — jobs that were queued or running when the previous process
// died are resubmitted and resume from their checkpoints, producing results
// byte-identical to an uninterrupted run. /readyz stays 503 until the
// replay finishes.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"qisim/internal/buildinfo"
	"qisim/internal/chaos"
	"qisim/internal/cmos"
	"qisim/internal/dist"
	"qisim/internal/dsp"
	"qisim/internal/metrics"
	"qisim/internal/obs"
	"qisim/internal/service"
	"qisim/internal/simerr"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "job worker goroutines (0 = all cores)")
	queue := flag.Int("queue", 64, "bounded job-queue depth")
	cacheEntries := flag.Int("cache-entries", 256, "result-cache capacity (entries)")
	jobTimeout := flag.Duration("job-timeout", 0, "per-job wall-clock cap (0 = none)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful-drain deadline on SIGTERM")
	dataDir := flag.String("data-dir", "", "crash-safe state directory (job journal + MC checkpoints); empty = in-memory only")
	tenantQuota := flag.Int("tenant-quota", 0, "max in-flight jobs per tenant (0 = unlimited)")
	maxBody := flag.Int64("max-body-bytes", service.DefaultMaxBodyBytes, "largest accepted POST /v1/jobs body (413 beyond)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (e.g. localhost:6060); empty = off")
	traceSpans := flag.Int("trace-max-spans", 0, "per-job span-buffer bound (0 = default, negative = disable job tracing)")
	logLevel := flag.String("log-level", "info", "log level: debug|info|warn|error")
	logFormat := flag.String("log-format", "text", "log format: text|json")
	role := flag.String("role", "standalone", "fleet role: standalone|coordinator|worker")
	coordinatorURL := flag.String("coordinator-url", "", "coordinator base URL (required for -role worker)")
	workerID := flag.String("worker-id", "", "fleet worker identity (default <hostname>-<pid>)")
	leaseTTL := flag.Duration("lease-ttl", 0, "coordinator per-lease heartbeat deadline (0 = 15s default)")
	unitShards := flag.Int("unit-shards", 0, "coordinator work-unit granularity in shards (0 = default 16)")
	spotCheck := flag.Float64("spot-check", 0, "coordinator fraction of reported units re-executed locally to audit workers (0 = off, e.g. 0.1)")
	chaosSpec := flag.String("chaos-spec", "", "JSON chaos scenario file: coordinator injects faults into /v1/dist/* serving, worker injects them into its coordinator RPCs (see DESIGN.md)")
	version := flag.Bool("version", false, "print build version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("qisimd"))
		return
	}
	logger, err := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qisimd:", err)
		os.Exit(simerr.ExitCode(simerr.Invalidf("%v", err)))
	}
	// Point the model packages' logging seams at the shared logger so
	// -log-level=debug surfaces their diagnostics in the daemon's stream.
	dsp.SetLogger(logger)
	cmos.SetLogger(logger)
	opts := daemonOpts{
		addr: *addr, workers: *workers, queue: *queue, cacheEntries: *cacheEntries,
		jobTimeout: *jobTimeout, drainTimeout: *drainTimeout, dataDir: *dataDir,
		tenantQuota: *tenantQuota,
		maxBody:     *maxBody, pprofAddr: *pprofAddr, traceSpans: *traceSpans,
		role: *role, coordinatorURL: *coordinatorURL, workerID: *workerID,
		leaseTTL: *leaseTTL, unitShards: *unitShards,
		spotCheck: *spotCheck, chaosSpec: *chaosSpec,
	}
	if err := run(logger, opts); err != nil {
		logger.Error("qisimd exiting on error", "err", err, "class", simerr.Class(err))
		os.Exit(simerr.ExitCode(err))
	}
}

// daemonOpts carries the parsed flag set into run.
type daemonOpts struct {
	addr                     string
	workers, queue           int
	cacheEntries             int
	jobTimeout, drainTimeout time.Duration
	dataDir                  string
	tenantQuota              int
	maxBody                  int64
	pprofAddr                string
	traceSpans               int

	role           string
	coordinatorURL string
	workerID       string
	leaseTTL       time.Duration
	unitShards     int
	spotCheck      float64
	chaosSpec      string
}

func run(logger *slog.Logger, o daemonOpts) error {
	switch o.role {
	case "standalone", "coordinator", "worker":
	default:
		return simerr.Invalidf("qisimd: unknown -role %q (roles: standalone, coordinator, worker)", o.role)
	}
	if o.role == "worker" && o.coordinatorURL == "" {
		return simerr.Invalidf("qisimd: -role worker requires -coordinator-url")
	}
	// -chaos-spec loads once and applies per role: a coordinator serves
	// /v1/dist/* through the fault-injection middleware, a worker routes
	// its coordinator RPCs through the fault-injection transport. Either
	// way the schedule is seeded and replayable (internal/chaos).
	var chaosSpec *chaos.Spec
	if o.chaosSpec != "" {
		spec, err := chaos.LoadSpec(o.chaosSpec)
		if err != nil {
			return err
		}
		chaosSpec = &spec
		logger.Warn("chaos injection armed", "spec", o.chaosSpec, "seed", spec.Seed, "role", o.role)
	}
	srv, err := service.New(service.Config{
		Workers:       o.workers,
		QueueDepth:    o.queue,
		CacheEntries:  o.cacheEntries,
		JobTimeout:    o.jobTimeout,
		DataDir:       o.dataDir,
		TenantQuota:   o.tenantQuota,
		MaxBodyBytes:  o.maxBody,
		Logger:        logger,
		TraceMaxSpans: o.traceSpans,
		Dist: service.DistConfig{
			Enabled:    o.role == "coordinator",
			LeaseTTL:   o.leaseTTL,
			UnitShards: o.unitShards,
			SpotCheck:  o.spotCheck,
			Chaos:      chaosSpec,
		},
	})
	if err != nil {
		return err
	}
	srv.Start()
	if n, err := srv.Recover(); err != nil {
		return err
	} else if n > 0 {
		logger.Info("recovered journaled jobs", "count", n, "data_dir", o.dataDir)
	}

	// Fleet worker: claim→execute→report against the coordinator, alongside
	// the normal HTTP server.
	var fleetWorker *dist.Worker
	workerDone := make(chan error, 1)
	workerCtx, stopWorker := context.WithCancel(context.Background())
	defer stopWorker()
	if o.role == "worker" {
		id := o.workerID
		if id == "" {
			host, _ := os.Hostname()
			if host == "" {
				host = "worker"
			}
			id = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		client := &dist.Client{Base: o.coordinatorURL}
		var chaosCount func() int64
		if chaosSpec != nil {
			tr := chaos.NewTransport(*chaosSpec, nil)
			tr.OnInject(func(fault string) {
				srv.Flight().Event("chaos.inject",
					obs.String("side", "client"), obs.String("fault", fault))
			})
			// The transport's injections show up on the worker's own
			// /metrics AND, through its report telemetry, as the
			// coordinator's per-worker chaos counts.
			srv.RegisterChaosStats("client", tr.Stats)
			client.HTTP = &http.Client{Transport: tr}
			chaosCount = func() int64 {
				var n int64
				for fault, c := range tr.Stats() {
					if fault != "requests" { // traffic, not a fault
						n += c
					}
				}
				return n
			}
		}
		fleetWorker, err = dist.NewWorker(dist.WorkerConfig{
			ID:          id,
			Coordinator: client,
			Cores:       service.BuildCore,
			Logger:      logger,
			Trace:       true,
			Flight:      srv.Flight(),
			Chaos:       chaosCount,
		})
		if err != nil {
			return err
		}
		// The worker's own counts on its /metrics; it reports the same
		// units and unit seconds to the coordinator with every unit.
		wreg := srv.Registry()
		fw := fleetWorker
		wreg.HistogramFunc("qisimd_worker_unit_seconds",
			"Work-unit execution wall clock on this worker.",
			func() metrics.HistogramSummary { return fw.Stats().UnitSeconds })
		wreg.CounterFunc("qisimd_worker_units_total",
			"Work units fully executed by this worker.",
			func() float64 { return float64(fw.Stats().Executions) })
		wreg.CounterFunc("qisimd_worker_claims_total",
			"Leases granted to this worker.",
			func() float64 { return float64(fw.Stats().Claims) })
		wreg.CounterFunc("qisimd_worker_reports_total",
			"Unit uploads accepted from this worker.",
			func() float64 { return float64(fw.Stats().Reports) })
		wreg.CounterFunc("qisimd_worker_abandoned_total",
			"Units abandoned on a lost lease or refused upload.",
			func() float64 { return float64(fw.Stats().Abandoned) })
		go func() {
			logger.Info("fleet worker claiming", "id", id, "coordinator", o.coordinatorURL)
			workerDone <- fleetWorker.Run(workerCtx)
		}()
	}

	if o.pprofAddr != "" {
		// Profiling lives on its own listener: operators can firewall it
		// separately and a profile download can never saturate the API port.
		pprofSrv := &http.Server{
			Addr:              o.pprofAddr,
			Handler:           obs.PprofMux(),
			ReadHeaderTimeout: 10 * time.Second,
		}
		go func() {
			logger.Info("pprof listening", "addr", o.pprofAddr)
			if err := pprofSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("pprof listener died", "err", err)
			}
		}()
		defer pprofSrv.Close()
	}

	// Slow-client hardening: bound the header read and reap idle keep-alive
	// connections so a stalled peer cannot pin a connection forever.
	httpSrv := &http.Server{
		Addr:              o.addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	// SIGQUIT is the flight-data key: dump the flight recorder and all
	// goroutine stacks to stderr and KEEP SERVING — it deliberately lives
	// on its own channel, not the NotifyContext below, so it never drains
	// the process. SIGINT/SIGTERM behave exactly as before.
	quitc := make(chan os.Signal, 1)
	signal.Notify(quitc, syscall.SIGQUIT)
	defer signal.Stop(quitc)
	go func() {
		for range quitc {
			os.Stderr.WriteString(srv.Flight().Snapshot().TreeString())
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", o.addr, "role", o.role, "version", buildinfo.String("qisimd"))
		errc <- httpSrv.ListenAndServe()
	}()

	select {
	case err := <-errc:
		// Listener died before any signal: that's a hard failure.
		return err
	case <-ctx.Done():
	}
	stop() // restore default signal handling: a second ^C kills immediately

	logger.Info("draining (in-flight jobs finish as truncated partials)")
	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	// Worker drain first: stop claiming new units but finish the one in
	// flight, renewing its lease and reporting it as usual. If the drain
	// deadline passes first, the worker stops renewing and the unit re-runs
	// elsewhere one lease TTL later, as a killed worker's does.
	if fleetWorker != nil {
		fleetWorker.Drain()
	}
	// Drain the job pool next so /v1/jobs polls during shutdown still see
	// the final (possibly truncated) snapshots, then close the listener.
	if err := srv.Drain(drainCtx); err != nil {
		httpSrv.Close()
		return err
	}
	if fleetWorker != nil {
		select {
		case err := <-workerDone:
			if err != nil {
				logger.Warn("fleet worker exited with error", "err", err)
			}
		case <-drainCtx.Done():
			stopWorker() // deadline passed: abandon the in-flight unit
			<-workerDone
		}
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return simerr.Interruptedf("qisimd: shutdown: %v", err)
	}
	logger.Info("drained cleanly")
	return nil
}
