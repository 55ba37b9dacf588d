// Fleet-coordinator wiring: the worker-side core builder, the /v1/dist/*
// worker endpoints, and the coordinator's metrics.
//
// The same params parser and core construction run on the coordinator (to
// fold and finish) and on every worker (to execute shard windows), so the
// merged result of a distributed run is byte-identical to the standalone
// path — see internal/dist's determinism contract.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"time"

	"qisim/internal/chaos"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/metrics"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// DistConfig turns the server into a fleet coordinator: Monte-Carlo jobs
// are split into leased work units across registered workers (with retry,
// work stealing, health-probe eviction and local-fallback degradation),
// and the /v1/dist/{register,claim,renew,report} endpoints are served.
// Workers run `qisimd -role worker -coordinator-url <this server>`.
type DistConfig struct {
	Enabled bool
	// LeaseTTL is the per-lease heartbeat deadline (default 15s); the
	// coordinator's sweep, probe, hedge and quarantine intervals derive
	// from it (see dist.Config.LeaseTTL).
	LeaseTTL time.Duration
	// UnitShards is the work-unit granularity in shards (default 4).
	UnitShards int
	// SpotCheck is the seeded fraction of remote unit reports the
	// coordinator re-executes locally and compares byte-for-byte; a
	// mismatch quarantines the reporting worker (0 = off). See
	// dist.Config.SpotCheck.
	SpotCheck float64
	// Chaos, when non-nil, wraps the /v1/dist/* endpoints in the seeded
	// fault-injection middleware (latency, 5xx bursts, aborts, duplicated
	// deliveries) — the coordinator-side half of a chaos drill.
	Chaos *chaos.Spec
}

// distReportBodyLimit bounds a unit-result upload (per-shard states plus
// an optional worker trace — far below this in practice).
const distReportBodyLimit = 4 << 20

// initDist builds the coordinator and exports its counters, each read from
// Coordinator.Stats at scrape time.
func (s *Server) initDist(cfg Config) {
	s.mDistUnitSeconds = s.reg.HistogramVec("qisimd_dist_unit_seconds",
		"Work-unit wall clock from grant to accepted report, per worker.",
		metrics.DefaultLatencyBuckets(), "worker")

	s.dist = dist.NewCoordinator(dist.Config{
		LeaseTTL:   cfg.Dist.LeaseTTL,
		UnitShards: cfg.Dist.UnitShards,
		SpotCheck:  cfg.Dist.SpotCheck,
		Probe:      dist.ProbeHTTP,
		Logger:     cfg.Logger,
		Flight:     s.flight,
		UnitSeconds: func(worker string, seconds float64) {
			s.mDistUnitSeconds.With(worker).Observe(seconds)
		},
	})

	s.reg.CounterFuncVec("qisimd_dist_leases_total",
		"Lease events by type (granted, renewed, expired, done).", "event",
		func() map[string]float64 {
			st := s.dist.Stats()
			return map[string]float64{"granted": float64(st.Grants), "renewed": float64(st.Renewals),
				"expired": float64(st.Expired), "done": float64(st.UnitsDone)}
		})
	s.reg.CounterFuncVec("qisimd_dist_spotcheck_total",
		"Spot-check verdicts on remote unit reports (pass, fail, error).", "result",
		func() map[string]float64 {
			st := s.dist.Stats()
			return map[string]float64{"pass": float64(st.SpotChecksPassed),
				"fail": float64(st.SpotChecksFailed), "error": float64(st.SpotCheckErrors)}
		})
	for _, c := range []struct {
		name, help string
		read       func(dist.Stats) int
	}{
		{"qisimd_dist_unit_retries_total", "Work units requeued with backoff after losing every lease.",
			func(st dist.Stats) int { return st.UnitRetries }},
		{"qisimd_dist_steals_total", "Straggler units hedge-dispatched to a second worker (first report wins).",
			func(st dist.Stats) int { return st.Steals }},
		{"qisimd_dist_workers_evicted_total", "Workers evicted after consecutive health-probe failures.",
			func(st dist.Stats) int { return st.Evictions }},
		{"qisimd_dist_workers_readmitted_total", "Evicted workers re-admitted after a successful probe, claim or report.",
			func(st dist.Stats) int { return st.Readmits + st.QuarantineReadmits }},
		{"qisimd_dist_local_units_total", "Work units executed on the coordinator's local lane (degraded or fleet down).",
			func(st dist.Stats) int { return st.LocalUnits }},
		{"qisimd_dist_quarantine_total", "Workers quarantined after a spot-check mismatch.",
			func(st dist.Stats) int { return st.Quarantines }},
		{"qisimd_dist_units_done_total", "Work units accepted into the fold.",
			func(st dist.Stats) int { return st.UnitsDone }},
		{"qisimd_dist_dup_reports_total", "Duplicate unit uploads dropped by the idempotent report path.",
			func(st dist.Stats) int { return st.DupReports }},
		{"qisimd_dist_idem_replays_total", "Duplicate claim deliveries answered from the idempotency record.",
			func(st dist.Stats) int { return st.IdemReplays }},
		{"qisimd_dist_quarantine_readmits_total", "Quarantined workers re-admitted after the quarantine window elapsed.",
			func(st dist.Stats) int { return st.QuarantineReadmits }},
	} {
		s.reg.CounterFunc(c.name, c.help, func() float64 { return float64(c.read(s.dist.Stats())) })
	}
	s.registerFleetMetrics()
}

// Dist exposes the fleet coordinator (nil unless DistConfig.Enabled).
func (s *Server) Dist() *dist.Coordinator { return s.dist }

// ---- /v1/dist/* worker endpoints ----

func (s *Server) handleDistRegister(w http.ResponseWriter, r *http.Request) {
	var info dist.WorkerInfo
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&info); err != nil {
		s.writeError(w, simerr.Invalidf("service: bad register body: %v", err))
		return
	}
	if err := s.dist.Register(r.Context(), info); err != nil {
		s.writeError(w, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

type distClaimRequest struct {
	Worker  string `json:"worker"`
	IdemKey string `json:"idem_key,omitempty"`
}

func (s *Server) handleDistClaim(w http.ResponseWriter, r *http.Request) {
	var req distClaimRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		s.writeError(w, simerr.Invalidf("service: claim needs a worker id"))
		return
	}
	if s.mgr.Draining() {
		// A draining coordinator grants nothing; Retry-After tells the
		// fleet how long to back off before asking again.
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "coordinator draining"})
		return
	}
	grant, err := s.dist.Claim(r.Context(), req.Worker, req.IdemKey)
	if err != nil {
		s.writeError(w, err)
		return
	}
	if grant == nil {
		w.WriteHeader(http.StatusNoContent)
		return
	}
	writeJSON(w, http.StatusOK, grant)
}

type distRenewRequest struct {
	Worker string `json:"worker"`
	Key    string `json:"key"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
}

func (s *Server) handleDistRenew(w http.ResponseWriter, r *http.Request) {
	var req distRenewRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&req); err != nil || req.Worker == "" {
		s.writeError(w, simerr.Invalidf("service: renew needs worker, key and range"))
		return
	}
	err := s.dist.Renew(r.Context(), req.Worker, req.Key, req.Start, req.End)
	switch {
	case errors.Is(err, dist.ErrGone):
		writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
	case err != nil:
		s.writeError(w, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

func (s *Server) handleDistReport(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, distReportBodyLimit))
	if err != nil {
		s.writeError(w, err) // MaxBytesError → 413
		return
	}
	err = s.dist.Report(r.Context(), r.Header.Get("X-QIsim-Worker"), body)
	switch {
	case errors.Is(err, dist.ErrGone):
		// Quarantined reporter: abandon the unit, stop retrying.
		writeJSON(w, http.StatusGone, errorResponse{Error: err.Error()})
	case err != nil:
		s.writeError(w, err)
	default:
		w.WriteHeader(http.StatusNoContent)
	}
}

// BuildCore is the worker-side dist.CoreBuilder: it rebuilds a job kind's
// execution core from the raw normalized params carried in a lease grant,
// through the same parser the submitting server used.
func BuildCore(kind string, params json.RawMessage) (dist.Core, error) {
	parse, ok := mcKinds[jobs.Kind(kind)]
	if !ok {
		return nil, simerr.Invalidf("service: kind %q is not distributable", kind)
	}
	j, err := parse(params)
	if err != nil {
		return nil, err
	}
	return j.newCore(simrun.Options{Workers: j.workers})
}

// startDist launches the coordinator's sweep/probe loops (idempotent).
func (s *Server) startDist() {
	if s.dist == nil || s.distCancel != nil {
		return
	}
	base := s.baseCtx
	if base == nil {
		base = context.Background()
	}
	ctx, cancel := context.WithCancel(base)
	s.distCancel = cancel
	s.dist.Start(ctx)
}
