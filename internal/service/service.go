// Package service is qisimd's HTTP/JSON layer: it parses and normalizes job
// requests (params.go), routes them through the jobs.Manager (bounded queue,
// worker pool, singleflight) and the rescache content-addressed result cache,
// and exposes Prometheus-format observability.
//
// Routes (Go 1.22 method+wildcard mux):
//
//	POST   /v1/jobs             submit a job   → 202 (queued/coalesced) or 200 (cached)
//	GET    /v1/jobs             list retained jobs (?kind= ?state= ?tenant=
//	                            ?limit=; newest first, results stripped)
//	GET    /v1/jobs/{id}        job snapshot   → state, live progress, result/error
//	DELETE /v1/jobs/{id}        cancel the job
//	GET    /v1/jobs/{id}/events SSE stream of the job's event log (state
//	                            transitions plus per-wave "frontier" events)
//	GET    /v1/results/{key}    cached result  → the byte-exact stored body
//	GET    /v1/jobs/{id}/trace  the job's span tree (?format=json|chrome|tree)
//	GET    /v1/fleet/status     the coordinator's fleet view (?format=json|tree)
//	GET    /v1/debug/flight     the flight-recorder ring (?format=json|chrome|tree)
//	POST   /v1/dist/claim       (coordinator) a worker's claim; the first admits it
//	POST   /v1/dist/renew       (coordinator) a lease heartbeat
//	POST   /v1/dist/report      (coordinator) a finished unit's shard states
//	GET    /metrics             Prometheus text exposition
//	GET    /healthz             liveness: 200 while the process serves, 503 draining
//	GET    /readyz              readiness: 503 while recovering the journal,
//	                            draining, or with a saturated queue
//
// Error mapping mirrors the CLI exit-code contract (simerr codes 3–7):
//
//	interrupted        → 503    invalid-config   → 400
//	numerical          → 500    budget-infeasible → 422
//	unsupported-qasm   → 501    queue full       → 429
//	body too large     → 413
//
// With Config.DataDir set the server is crash-safe: every accepted
// submission is write-ahead-logged (internal/jobs journal) and every
// Monte-Carlo run checkpoints its committed shard prefix
// (internal/checkpoint). Recover() replays the journal on boot and
// resubmits unresolved jobs, which resume from their snapshots — the
// deterministic engine makes the recovered results byte-identical to what
// the interrupted life would have produced.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qisim/internal/buildinfo"
	"qisim/internal/chaos"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/metrics"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// Config parameterises a Server.
type Config struct {
	// Workers is the job worker-pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the job backlog (default 64).
	QueueDepth int
	// CacheEntries bounds the result cache (<= 0 uses the default of 256 —
	// the cache is integral to the service contract, so it cannot be
	// disabled from here).
	CacheEntries int
	// MaxRecords bounds retained finished-job records (default 1024).
	MaxRecords int
	// JobTimeout caps each job's wall clock (0 = none).
	JobTimeout time.Duration
	// BaseContext is the ancestor of every job context (tests inject
	// deterministic cancellation here).
	BaseContext context.Context
	// DataDir enables crash-safe persistence: the job journal lives at
	// DataDir/journal.wal and Monte-Carlo checkpoints under
	// DataDir/checkpoints. Empty = fully in-memory (the pre-existing
	// behaviour); jobs and results then do not survive a restart.
	DataDir string
	// MaxBodyBytes bounds the request body accepted by POST /v1/jobs
	// (default 1 MiB; overflow is a 413). QASM programs are the largest
	// legitimate payload and fit comfortably.
	MaxBodyBytes int64
	// Logger receives the service's structured lifecycle records (job
	// submissions, state transitions, recovery). Nil = silent.
	Logger *slog.Logger
	// TraceMaxSpans bounds each job's span buffer. 0 = obs.DefaultMaxSpans
	// (per-job tracing on by default — the source of GET
	// /v1/jobs/{id}/trace and the qisimd_stage_seconds histograms);
	// negative disables job tracing entirely.
	TraceMaxSpans int
	// Dist, when Enabled, turns this server into a fleet coordinator: MC
	// jobs are dispatched across the workers that claim them with leases,
	// retries, work stealing and graceful local fallback (see dist.go).
	Dist DistConfig
	// TenantQuota bounds each tenant's in-flight jobs (0 = unlimited).
	// Exceeding it is a 429 with a distinct quota-exceeded body.
	TenantQuota int
}

// DefaultMaxBodyBytes bounds POST bodies when Config.MaxBodyBytes is unset.
const DefaultMaxBodyBytes = 1 << 20

// Server wires the request layer, the job manager, the cache and the metrics
// registry together.
type Server struct {
	mgr     *jobs.Manager
	cache   *rescache.Cache
	reg     *metrics.Registry
	mux     *http.ServeMux
	journal *jobs.Journal // nil without DataDir
	ckptDir string        // "" without DataDir

	queueDepth   int
	maxBodyBytes int64
	ready        atomic.Bool // true once Recover has replayed the journal

	log *slog.Logger

	mSubmitted *metrics.CounterVec // kind
	mFinished  *metrics.CounterVec // kind, state
	mTruncated *metrics.CounterVec // kind
	mErrors    *metrics.CounterVec // kind, class
	mSeconds   *metrics.HistogramVec
	mCacheHits *metrics.Counter
	mCacheMiss *metrics.Counter
	mCoalesced *metrics.Counter
	mRejected  *metrics.CounterVec // reason
	mQuotaRej  *metrics.Counter    // tenant-quota 429s specifically
	mShots     *metrics.Counter

	mRecovered      *metrics.Counter // journaled jobs resubmitted at boot
	mResumed        *metrics.Counter // runs that resumed from a checkpoint
	mRecoveryFailed *metrics.Counter // journaled jobs that could not be rebuilt
	mCkptSaved      *metrics.Counter // checkpoint snapshots written

	mStageSeconds *metrics.HistogramVec // per-stage span durations, from traces

	// Fleet-coordinator state (nil / zero unless Config.Dist.Enabled).
	dist       *dist.Coordinator
	distCancel context.CancelFunc
	baseCtx    context.Context

	// sseHeartbeat is the interval between comment heartbeats (": hb") on
	// idle GET /v1/jobs/{id}/events streams (15s; tests shorten it).
	// Heartbeats keep intermediaries from timing out the connection and
	// surface dead subscribers: a failed heartbeat write tears the stream
	// down and frees its event subscription instead of leaking it until
	// the next real event.
	sseHeartbeat time.Duration

	// Observability plane (see fleet.go): RED middleware around every
	// route, the always-on flight recorder (a tracer of events), and the
	// chaos-injection export.
	red     *metrics.RED
	flight  *obs.Tracer
	dataDir string // "" = no flight-last.json crash persistence

	chaosMu      sync.Mutex
	chaosSources []chaosSource // feeds qisimd_chaos_injected_total
}

// New builds a Server (workers not yet running — call Start; with DataDir,
// also call Recover after Start to replay the journal). The only error
// source is an unusable DataDir/journal.
func New(cfg Config) (*Server, error) {
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = DefaultMaxBodyBytes
	}
	traceMaxSpans := cfg.TraceMaxSpans
	switch {
	case traceMaxSpans == 0:
		traceMaxSpans = obs.DefaultMaxSpans
	case traceMaxSpans < 0:
		traceMaxSpans = 0 // disables job tracing in the manager
	}
	s := &Server{
		cache:        rescache.New(cfg.CacheEntries),
		reg:          metrics.New(),
		queueDepth:   cfg.QueueDepth,
		maxBodyBytes: cfg.MaxBodyBytes,
		baseCtx:      cfg.BaseContext,
		log:          obs.OrDiscard(cfg.Logger),
		sseHeartbeat: 15 * time.Second,
		flight:       obs.NewTracer(obs.TracerConfig{ID: "flight"}),
		dataDir:      cfg.DataDir,
	}
	if cfg.DataDir != "" {
		journal, err := jobs.OpenJournal(filepath.Join(cfg.DataDir, "journal.wal"))
		if err != nil {
			return nil, err
		}
		s.journal = journal
		s.ckptDir = filepath.Join(cfg.DataDir, "checkpoints")
	} else {
		// Nothing to recover: the server is ready as soon as it starts.
		s.ready.Store(true)
	}
	s.mSubmitted = s.reg.CounterVec("qisimd_jobs_submitted_total",
		"Job submissions accepted (queued, coalesced or served from cache).", "kind")
	s.mFinished = s.reg.CounterVec("qisimd_jobs_finished_total",
		"Executed jobs by terminal state.", "kind", "state")
	s.mTruncated = s.reg.CounterVec("qisimd_jobs_truncated_total",
		"Jobs that finished with a Truncated partial result (drain/deadline).", "kind")
	s.mErrors = s.reg.CounterVec("qisimd_job_errors_total",
		"Failed jobs by simerr class.", "kind", "class")
	s.mSeconds = s.reg.HistogramVec("qisimd_job_seconds",
		"Job execution wall clock.", metrics.DefaultLatencyBuckets(), "kind")
	s.mCacheHits = s.reg.Counter("qisimd_cache_hits_total",
		"Submissions served byte-exactly from the result cache.")
	s.mCacheMiss = s.reg.Counter("qisimd_cache_misses_total",
		"Submissions that required a computation (no cached result).")
	s.mCoalesced = s.reg.Counter("qisimd_jobs_coalesced_total",
		"Duplicate submissions attached to an already-in-flight job.")
	s.mRejected = s.reg.CounterVec("qisimd_jobs_rejected_total",
		"Refused submissions by reason (queue-full, quota-exceeded, draining, invalid, ...).", "reason")
	s.mQuotaRej = s.reg.Counter("qisimd_quota_rejections_total",
		"Submissions refused because the tenant hit its in-flight job quota.")
	s.mShots = s.reg.Counter("qisimd_shots_total",
		"Monte-Carlo shots committed across all finished jobs.")
	s.mRecovered = s.reg.Counter("qisimd_jobs_recovered_total",
		"Journaled jobs resubmitted during boot recovery.")
	s.mResumed = s.reg.Counter("qisimd_jobs_resumed_total",
		"Runs that resumed from a crash-safe checkpoint instead of starting cold.")
	s.mRecoveryFailed = s.reg.Counter("qisimd_jobs_recovery_failed_total",
		"Journaled jobs that could not be rebuilt or resubmitted at boot.")
	s.mCkptSaved = s.reg.Counter("qisimd_checkpoints_saved_total",
		"Checkpoint snapshots written by Monte-Carlo runners.")
	s.mStageSeconds = s.reg.HistogramVec("qisimd_stage_seconds",
		"Per-stage wall clock from finished job traces (stage = span name).",
		metrics.DefaultLatencyBuckets(), "stage")
	bi := buildinfo.Resolve()
	s.reg.GaugeVec("qisimd_build_info",
		"Build identity of this process; the value is a constant 1, the identity lives in the labels.",
		"version", "vcs").With(bi.Version, bi.Commit).Set(1)
	s.reg.CounterFuncN("qisimd_chaos_injected_total",
		"Faults injected by the chaos layer, by side (server = /v1/dist middleware, client = worker transport) and fault kind.",
		[]string{"side", "fault"}, s.chaosSamples)
	if cfg.Dist.Enabled {
		s.initDist(cfg)
	}

	s.mgr = jobs.NewManager(jobs.Config{
		Workers:       cfg.Workers,
		QueueDepth:    cfg.QueueDepth,
		JobTimeout:    cfg.JobTimeout,
		MaxRecords:    cfg.MaxRecords,
		TenantQuota:   cfg.TenantQuota,
		Cache:         s.cache,
		Journal:       s.journal,
		BaseContext:   cfg.BaseContext,
		Logger:        cfg.Logger,
		TraceMaxSpans: traceMaxSpans,
		Hooks: jobs.Hooks{
			JobFinished: func(id string, kind jobs.Kind, state jobs.State, errClass string, st *simrun.Status, dur time.Duration) {
				s.mFinished.With(string(kind), string(state)).Inc()
				s.mSeconds.With(string(kind)).Observe(dur.Seconds())
				if errClass != "" {
					s.mErrors.With(string(kind), errClass).Inc()
				}
				if st != nil {
					s.mShots.Add(float64(st.Completed))
					if st.Truncated {
						s.mTruncated.With(string(kind)).Inc()
					}
				}
				s.observeTrace(id)
			},
			JobPanicked: func(id string, recovered any) {
				// The panic backstop is the last stop before the evidence
				// is flattened into a typed error: persist the flight ring
				// so the crash context survives the process.
				s.flight.Event("job.panic",
					obs.String("job", id), obs.String("panic", fmt.Sprint(recovered)))
				s.persistFlight()
			},
		},
	})

	// Sampled-at-scrape-time views over the cache and the queue.
	s.reg.CounterFunc("qisimd_cache_corruptions_total",
		"Cache entries dropped by checksum verification (recomputed, never served).",
		func() float64 { return float64(s.cache.Stats().Corruptions) })
	s.reg.CounterFunc("qisimd_cache_evictions_total",
		"Cache entries evicted by the LRU bound.",
		func() float64 { return float64(s.cache.Stats().Evictions) })
	s.reg.GaugeFunc("qisimd_cache_entries",
		"Resident result-cache entries.",
		func() float64 { return float64(s.cache.Len()) })
	s.reg.GaugeFuncVec("qisimd_cache_entries_by_kind",
		"Resident result-cache entries broken down by job kind.",
		"kind", func() map[string]float64 {
			counts := s.cache.KindCounts()
			out := make(map[string]float64, len(counts))
			for k, n := range counts {
				out[k] = float64(n)
			}
			return out
		})
	s.reg.GaugeFunc("qisimd_queue_depth",
		"Jobs queued but not yet running.",
		func() float64 { return float64(s.mgr.QueueDepth()) })
	s.reg.GaugeFunc("qisimd_jobs_inflight",
		"Jobs queued or running.",
		func() float64 { return float64(s.mgr.InFlight()) })
	if s.journal != nil {
		s.reg.CounterFunc("qisimd_journal_replayed_entries_total",
			"Valid journal entries folded during boot replay.",
			func() float64 { return float64(s.journal.Stats().Replayed) })
		s.reg.CounterFunc("qisimd_journal_torn_entries_total",
			"Undecodable journal tail records discarded during boot replay.",
			func() float64 { return float64(s.journal.Stats().Torn) })
		s.reg.CounterFunc("qisimd_journal_append_errors_total",
			"Journal record writes that failed (durability degraded).",
			func() float64 { return float64(s.journal.Stats().AppendErrors) })
	}

	s.red = metrics.NewRED(s.reg)
	mux := http.NewServeMux()
	// Every route — including the chaos-wrapped dist endpoints — is served
	// through the RED middleware, composed OUTSIDE the fault injector so
	// injected 5xx/aborts are measured like any organic response. The route
	// label is the mux pattern (bounded cardinality), not the raw path.
	handle := func(pattern string, h http.Handler) {
		route := pattern[strings.IndexByte(pattern, ' ')+1:]
		mux.Handle(pattern, s.red.Wrap(route, h))
	}
	handle("POST /v1/jobs", http.HandlerFunc(s.handleSubmit))
	handle("GET /v1/jobs", http.HandlerFunc(s.handleJobsList))
	handle("GET /v1/jobs/{id}", http.HandlerFunc(s.handleJob))
	handle("DELETE /v1/jobs/{id}", http.HandlerFunc(s.handleJobCancel))
	handle("GET /v1/jobs/{id}/events", http.HandlerFunc(s.handleJobEvents))
	handle("GET /v1/jobs/{id}/trace", http.HandlerFunc(s.handleTrace))
	handle("GET /v1/results/{key}", http.HandlerFunc(s.handleResult))
	handle("GET /metrics", s.reg.Handler())
	handle("GET /healthz", http.HandlerFunc(s.handleHealthz))
	handle("GET /readyz", http.HandlerFunc(s.handleReadyz))
	handle("GET /v1/fleet/status", http.HandlerFunc(s.handleFleetStatus))
	handle("GET /v1/debug/flight", http.HandlerFunc(s.handleFlight))
	if s.dist != nil {
		// With a chaos spec configured, every fleet RPC endpoint is
		// served through the fault-injection middleware so a single
		// coordinator process can rehearse the full failure taxonomy
		// (latency, 5xx bursts, aborts, duplicated deliveries) against
		// real workers. One middleware per route keeps each route's
		// seeded fault schedule independent of traffic on its siblings.
		distHandler := func(h http.HandlerFunc) http.Handler {
			if cfg.Dist.Chaos == nil {
				return h
			}
			mw := chaos.NewMiddleware(*cfg.Dist.Chaos, h)
			mw.OnInject(func(fault string) {
				s.flight.Event("chaos.inject",
					obs.String("side", "server"), obs.String("fault", fault))
			})
			s.RegisterChaosStats("server", mw.Stats)
			return mw
		}
		handle("POST /v1/dist/claim", distHandler(s.handleDistClaim))
		handle("POST /v1/dist/renew", distHandler(s.handleDistRenew))
		handle("POST /v1/dist/report", distHandler(s.handleDistReport))
	}
	s.mux = mux
	return s, nil
}

// Start launches the worker pool (and, as a coordinator, the lease-sweep
// loop). Idempotent.
func (s *Server) Start() {
	s.mgr.Start()
	s.startDist()
}

// observeTrace folds one finished job's trace into the stage-latency
// histogram: every span contributes to qisimd_stage_seconds{stage=<name>}.
// No-op when the job recorded no trace.
func (s *Server) observeTrace(id string) {
	trace, _, ok := s.mgr.Trace(id)
	if !ok {
		return
	}
	for _, sp := range trace.Spans {
		s.mStageSeconds.With(sp.Name).Observe(float64(sp.DurNS()) / 1e9)
	}
}

// env is the execution environment handed to the per-kind job builders.
func (s *Server) env() buildEnv {
	return buildEnv{
		ckptDir:  s.ckptDir,
		onSaves:  func(n int) { s.mCkptSaved.Add(float64(n)) },
		onResume: func() { s.mResumed.Inc() },
		dist:     s.dist,
		publish:  func(id, typ string, data any) { s.mgr.Publish(id, typ, data) }, //nolint:errcheck
		log:      s.log,
	}
}

// Recover replays the job journal: every unresolved submission — queued or
// running when the previous life died — is rebuilt from its journaled
// params and resubmitted. Runs that already committed a shard prefix resume
// from their checkpoint, so no completed work is recomputed and the final
// bytes are identical to what an uninterrupted life would have produced.
// The journal is compacted first so file growth stays bounded across
// restarts. Recover flips the /readyz gate once replay is finished; servers
// without a DataDir are born ready and Recover is a no-op. Call after
// Start.
func (s *Server) Recover() (int, error) {
	defer s.ready.Store(true)
	if s.journal == nil {
		return 0, nil
	}
	pending := s.journal.Pending()
	if err := s.journal.Compact(); err != nil {
		// Compaction failure degrades disk usage, not correctness.
		s.mRecoveryFailed.Inc()
	}
	recovered := 0
	for _, p := range pending {
		kind, key, run, err := buildJob(jobRequest{Kind: string(p.Kind), Params: p.Params}, s.env())
		if err != nil || key != p.Key {
			// The journaled request no longer normalizes to the same key
			// (version drift) or no longer validates: journal a failure so
			// it is not retried forever, and count it.
			s.journal.Append(jobs.OpFailed, p.Kind, p.Key, nil) //nolint:errcheck
			s.mRecoveryFailed.Inc()
			continue
		}
		if _, _, err := s.mgr.Submit(kind, key, p.Params, run, p.Tenant); err != nil {
			s.mRecoveryFailed.Inc()
			continue
		}
		s.mSubmitted.With(string(kind)).Inc()
		s.mRecovered.Inc()
		recovered++
	}
	return recovered, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain stops accepting work, cancels in-flight jobs (they surface as
// Truncated partials — journaled as such, so the next boot resumes them
// from their checkpoints) and waits for the pool (bounded by ctx). The
// journal's append handle closes once the pool has committed every final
// record.
func (s *Server) Drain(ctx context.Context) error {
	if s.distCancel != nil {
		s.distCancel() // stop the coordinator's sweep loop
	}
	err := s.mgr.Drain(ctx)
	if err == nil && s.journal != nil {
		s.journal.Close() //nolint:errcheck
	}
	return err
}

// Registry exposes the metrics registry (tests, extra collectors).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Flight exposes the always-on flight recorder, a tracer of events, so the
// process shell (SIGQUIT handler, fleet-worker loop, tests) can record into
// and dump the same ring the HTTP debug endpoint serves.
func (s *Server) Flight() *obs.Tracer { return s.flight }

// submitResponse is the POST /v1/jobs body.
type submitResponse struct {
	Outcome string        `json:"outcome"` // queued | coalesced | cached
	Job     jobs.Snapshot `json:"job"`
}

// errorResponse is every error body.
type errorResponse struct {
	Error string `json:"error"`
	Class string `json:"class,omitempty"`
}

// decodeJobRequest decodes a POST /v1/jobs body strictly: one JSON object
// with no unknown fields, followed by nothing but whitespace. A body over
// its MaxBytesReader bound fails with the reader's *http.MaxBytesError.
func decodeJobRequest(body io.Reader) (jobRequest, error) {
	data, err := io.ReadAll(body)
	if err != nil {
		return jobRequest{}, err
	}
	var req jobRequest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return jobRequest{}, err
	}
	if len(bytes.TrimLeft(data[dec.InputOffset():], " \t\r\n")) > 0 {
		return jobRequest{}, errors.New("data after the job object")
	}
	return req, nil
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Bound the body BEFORE decoding: an oversized (or unbounded) payload
	// is refused with 413 instead of being buffered into memory.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	req, err := decodeJobRequest(r.Body)
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.mRejected.With("too-large").Inc()
			s.writeError(w, err) // httpStatus maps *http.MaxBytesError → 413
			return
		}
		s.mRejected.With("invalid").Inc()
		s.writeError(w, simerr.Invalidf("service: bad request body: %v", err))
		return
	}
	kind, key, run, err := buildJob(req, s.env())
	if err != nil {
		s.mRejected.With("invalid").Inc()
		s.writeError(w, err)
		return
	}
	if req.TimeoutMS > 0 {
		// Per-request deadline: flows through the job context into the
		// engine, and — on a coordinator — into every lease grant, so
		// fleet workers inherit it end to end.
		run = withTimeout(run, time.Duration(req.TimeoutMS)*time.Millisecond)
	}
	// The tenant header feeds fair round-robin scheduling and quotas; it is
	// an attribution, not part of the cache key — identical requests from
	// different tenants still dedupe.
	snap, outcome, err := s.mgr.Submit(kind, key, req.Params, run, r.Header.Get("X-QIsim-Tenant"))
	if err != nil {
		switch {
		case errors.Is(err, jobs.ErrQuotaExceeded):
			// Distinct from queue saturation: the queue may be empty — it is
			// THIS tenant that is over budget, and only its own completions
			// free the slot.
			s.mRejected.With("quota-exceeded").Inc()
			s.mQuotaRej.Inc()
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: err.Error(), Class: "quota-exceeded"})
			return
		case errors.Is(err, jobs.ErrQueueFull):
			s.mRejected.With("queue-full").Inc()
			// Tell well-behaved clients (including fleet workers' shared
			// backoff helper) when to come back instead of hammering.
			w.Header().Set("Retry-After", "1")
		case s.mgr.Draining():
			s.mRejected.With("draining").Inc()
		default:
			s.mRejected.With("error").Inc()
		}
		s.writeError(w, err)
		return
	}
	s.mSubmitted.With(string(kind)).Inc()
	code := http.StatusAccepted
	switch outcome {
	case jobs.OutcomeCached:
		s.mCacheHits.Inc()
		code = http.StatusOK
	case jobs.OutcomeCoalesced:
		s.mCoalesced.Inc()
	default:
		s.mCacheMiss.Inc()
	}
	writeJSON(w, code, submitResponse{Outcome: outcome.String(), Job: snap})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	snap, ok := s.mgr.Get(r.PathValue("id"))
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + r.PathValue("id")})
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

// handleTrace serves a finished job's span tree. State machine:
//
//	unknown job, or a terminal job that recorded no trace
//	(cache hit / tracing disabled)                          → 404
//	job still queued or running                             → 202 {state}
//	finished job with a trace                               → 200
//
// The format switch is writeTrace's.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	trace, state, ok := s.mgr.Trace(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	if state == jobs.StateQueued || state == jobs.StateRunning {
		writeJSON(w, http.StatusAccepted, map[string]string{
			"state": string(state), "error": "trace not available until the job finishes"})
		return
	}
	if len(trace.Spans) == 0 {
		writeJSON(w, http.StatusNotFound, errorResponse{
			Error: "no trace recorded for job " + id + " (cached result or tracing disabled)"})
		return
	}
	s.writeTrace(w, r, trace)
}

// writeTrace serves a trace, a job's or the flight recorder's, in the
// ?format= the request names: "json" (default) the obs.Trace object,
// "chrome" Chrome trace_event JSON for chrome://tracing / Perfetto, "tree"
// the indented text outline. Any other format is a 400.
func (s *Server) writeTrace(w http.ResponseWriter, r *http.Request, trace obs.Trace) {
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, trace)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		trace.WriteChrome(w) //nolint:errcheck
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(trace.TreeString())) //nolint:errcheck
	default:
		s.writeError(w, simerr.Invalidf("service: unknown trace format %q (want json|chrome|tree)", format))
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	key := rescache.Key(r.PathValue("key"))
	if !key.Valid() {
		s.writeError(w, simerr.Invalidf("service: malformed result key %q", string(key)))
		return
	}
	body, ok := s.cache.Get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "no cached result for key " + string(key)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is the load-balancer gate: the server is ready only once the
// journal has been replayed, while it is not draining, and while the
// bounded queue still has room. Unlike /healthz (liveness) a 503 here means
// "send traffic elsewhere", not "restart me".
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case s.mgr.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case !s.ready.Load():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "recovering"})
	case s.mgr.QueueDepth() >= s.queueDepth:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

// httpStatus maps a typed error to its HTTP status, mirroring the CLI
// exit-code mapping one protocol over.
func httpStatus(err error) int {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return http.StatusRequestEntityTooLarge // 413
	}
	switch {
	case errors.Is(err, jobs.ErrQueueFull), errors.Is(err, jobs.ErrQuotaExceeded):
		return http.StatusTooManyRequests // 429
	case errors.Is(err, simerr.ErrInterrupted):
		return http.StatusServiceUnavailable // 503 (exit 3)
	case errors.Is(err, simerr.ErrInvalidConfig):
		return http.StatusBadRequest // 400 (exit 4)
	case errors.Is(err, simerr.ErrNumerical):
		return http.StatusInternalServerError // 500 (exit 5)
	case errors.Is(err, simerr.ErrBudgetInfeasible):
		return http.StatusUnprocessableEntity // 422 (exit 6)
	case errors.Is(err, simerr.ErrUnsupportedQASM):
		return http.StatusNotImplemented // 501 (exit 7)
	default:
		return http.StatusInternalServerError
	}
}

func (s *Server) writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), errorResponse{Error: err.Error(), Class: simerr.Class(err)})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}
