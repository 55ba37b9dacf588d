// Fleet observability plane: the /v1/fleet/status and /v1/debug/flight
// endpoints, the qisimd_fleet_* series, and the qisimd_chaos_injected_total
// export.
//
// Every unit report carries the worker's dist.Telemetry: its unit-seconds
// histogram, whose count is its count of executed units, and its
// client-side chaos injections. The coordinator keeps the latest telemetry per worker that
// passed its intake check; the counts are cumulative, so "latest wins" is
// the correct fold and a lost report costs freshness, never correctness.
// The qisimd_fleet_* series below are computed from it at scrape time;
// nothing here ever touches the dispatch path or simulation results.
package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"

	"qisim/internal/chaos"
	"qisim/internal/dist"
	"qisim/internal/metrics"
	"qisim/internal/simerr"
)

// ---- chaos-injection export ----

// chaosSource is one registered chaos injector (a server-side /v1/dist
// middleware or a worker's client transport) feeding the
// qisimd_chaos_injected_total{side,fault} export.
type chaosSource struct {
	side  string
	stats func() chaos.Stats
}

// RegisterChaosStats adds a chaos injector's live counters to the
// qisimd_chaos_injected_total{side,fault} series. side is "server" for
// middleware around served endpoints and "client" for a worker's outbound
// transport. Safe to call after New (the export samples at scrape time).
func (s *Server) RegisterChaosStats(side string, stats func() chaos.Stats) {
	s.chaosMu.Lock()
	s.chaosSources = append(s.chaosSources, chaosSource{side: side, stats: stats})
	s.chaosMu.Unlock()
}

// chaosSamples folds every registered injector into per-(side,fault)
// totals. The "requests" key is the injector's traffic counter, not a
// fault, and stays out of the export.
func (s *Server) chaosSamples() []metrics.Sample {
	s.chaosMu.Lock()
	defer s.chaosMu.Unlock()
	totals := map[string]map[string]int64{}
	for _, src := range s.chaosSources {
		for fault, n := range src.stats() {
			if fault == "requests" || n == 0 {
				continue
			}
			if totals[src.side] == nil {
				totals[src.side] = map[string]int64{}
			}
			totals[src.side][fault] += n
		}
	}
	var out []metrics.Sample
	for side, faults := range totals {
		for fault, n := range faults {
			out = append(out, metrics.Sample{Values: []string{side, fault}, Value: float64(n)})
		}
	}
	return out
}

// ---- flight-recorder persistence and endpoint ----

// persistFlight writes the flight ring, as obs.Trace JSON, to
// <data-dir>/flight-last.json so a crash's preceding events survive the
// process. Best-effort: an in-memory server (no DataDir) or a failed write
// silently keeps the in-process ring as the only copy.
func (s *Server) persistFlight() {
	if s.dataDir == "" {
		return
	}
	body, err := json.MarshalIndent(s.flight.Snapshot(), "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.dataDir, "flight-last.json")
	if err := os.WriteFile(path, body, 0o644); err != nil {
		s.log.Warn("flight persistence failed", "path", path, "err", err)
	}
}

// handleFlight serves GET /v1/debug/flight: the flight ring in the trace
// endpoint's formats; ?format=tree is the text the SIGQUIT handler prints.
func (s *Server) handleFlight(w http.ResponseWriter, r *http.Request) {
	s.writeTrace(w, r, s.flight.Snapshot())
}

// ---- /v1/fleet/status ----

// fleetWorkerView is one worker row of the status document: the
// coordinator's own bookkeeping (dist.FleetWorker) enriched with the
// worker's telemetry.
type fleetWorkerView struct {
	dist.FleetWorker
	// The unit quantiles are the worker's own execution times, read from
	// its telemetry's unit-seconds histogram, so they go when the
	// coordinator forgets the worker.
	UnitP50 float64 `json:"unit_p50_seconds,omitempty"`
	UnitP90 float64 `json:"unit_p90_seconds,omitempty"`
	UnitP99 float64 `json:"unit_p99_seconds,omitempty"`
	// UnitsDone / ChaosInjected come from the worker's telemetry (its own
	// counting), not the coordinator's; a gap between UnitsDone here and
	// the coordinator's lease bookkeeping is a report still in flight.
	UnitsDone     uint64 `json:"units_done,omitempty"`
	ChaosInjected int64  `json:"chaos_injected,omitempty"`
	Federated     bool   `json:"federated"` // a report's telemetry has arrived
}

// fleetStatusView is the GET /v1/fleet/status body.
type fleetStatusView struct {
	Enabled bool              `json:"enabled"`
	Workers []fleetWorkerView `json:"workers,omitempty"`
	Jobs    []dist.FleetJob   `json:"jobs,omitempty"`
	Stats   dist.Stats        `json:"stats"`
}

func (s *Server) fleetStatus() fleetStatusView {
	if s.dist == nil {
		return fleetStatusView{}
	}
	snap := s.dist.FleetSnapshot()
	view := fleetStatusView{
		Enabled: true,
		Workers: make([]fleetWorkerView, 0, len(snap.Workers)),
		Jobs:    snap.Jobs,
		Stats:   snap.Stats,
	}
	for _, w := range snap.Workers {
		row := fleetWorkerView{FleetWorker: w}
		if w.Telemetry != nil {
			row.Federated = true
			row.UnitsDone = w.Telemetry.UnitSeconds.Count
			row.ChaosInjected = w.Telemetry.Chaos
			if hs := w.Telemetry.UnitSeconds; hs.Count > 0 {
				row.UnitP50 = hs.Quantile(0.50)
				row.UnitP90 = hs.Quantile(0.90)
				row.UnitP99 = hs.Quantile(0.99)
			}
		}
		view.Workers = append(view.Workers, row)
	}
	return view
}

// handleFleetStatus serves GET /v1/fleet/status (?format=json|tree). On a
// non-coordinator the document is {"enabled": false} rather than an error,
// so one dashboard query works against any role.
func (s *Server) handleFleetStatus(w http.ResponseWriter, r *http.Request) {
	view := s.fleetStatus()
	switch format := r.URL.Query().Get("format"); format {
	case "", "json":
		writeJSON(w, http.StatusOK, view)
	case "tree":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		writeFleetTree(w, view)
	default:
		s.writeError(w, simerr.Invalidf("service: unknown fleet format %q (want json|tree)", format))
	}
}

// writeFleetTree renders the status document in the same text-tree style as
// the trace endpoint's ?format=tree.
func writeFleetTree(w http.ResponseWriter, v fleetStatusView) {
	if !v.Enabled {
		fmt.Fprintln(w, "fleet: not a coordinator")
		return
	}
	byState := map[string]int{}
	for _, wk := range v.Workers {
		byState[wk.State]++
	}
	var states []string
	for _, st := range []string{"healthy", "lost", "quarantined"} {
		if byState[st] > 0 {
			states = append(states, fmt.Sprintf("%d %s", byState[st], st))
		}
	}
	summary := strings.Join(states, ", ")
	if summary == "" {
		summary = "none heard from"
	}
	fmt.Fprintf(w, "fleet: %d workers (%s), %d jobs\n", len(v.Workers), summary, len(v.Jobs))
	for i, wk := range v.Workers {
		branch := treeBranch(i == len(v.Workers)-1 && len(v.Jobs) == 0)
		fmt.Fprintf(w, "%s%s %s trust=%d leases=%d last-seen=%dms",
			branch, wk.ID, wk.State, wk.Trust, wk.Leases, wk.LastSeenAgeMS)
		if wk.QuarantineLeftMS > 0 {
			fmt.Fprintf(w, " quarantine-left=%dms", wk.QuarantineLeftMS)
		}
		if wk.UnitP50 > 0 || wk.UnitP99 > 0 {
			fmt.Fprintf(w, " unit-p50=%.3fs p90=%.3fs p99=%.3fs", wk.UnitP50, wk.UnitP90, wk.UnitP99)
		}
		if wk.Federated {
			fmt.Fprintf(w, " units=%v chaos=%v", wk.UnitsDone, wk.ChaosInjected)
		}
		fmt.Fprintln(w)
	}
	for i, j := range v.Jobs {
		branch := treeBranch(i == len(v.Jobs)-1)
		fmt.Fprintf(w, "%s%s %s units %d (%d done, %d leased, %d pending",
			branch, j.Kind, j.Key, j.Units, j.UnitsDone, j.UnitsLeased, j.UnitsPending)
		if j.UnitsLocalOnly > 0 {
			fmt.Fprintf(w, ", %d local-only", j.UnitsLocalOnly)
		}
		fmt.Fprintf(w, ") shots %d/%d frontier=%d\n", j.CompletedShots, j.RequestedShots, j.FrontierShard)
	}
}

func treeBranch(last bool) string {
	if last {
		return "└─ "
	}
	return "├─ "
}

// ---- qisimd_fleet_* series ----

// registerFleetMetrics installs the coordinator's scrape-time fleet series.
// A worker's series start at its first contact. A silent one reads
// state="lost" in qisimd_fleet_workers while its last-seen age grows, and
// its series go once the coordinator forgets it (silent for 20×lease TTL).
func (s *Server) registerFleetMetrics() {
	s.reg.GaugeFuncVec("qisimd_fleet_workers",
		"Fleet workers by state: healthy, lost (not heard from for 2×lease TTL) or quarantined.", "state",
		func() map[string]float64 {
			out := map[string]float64{"healthy": 0, "lost": 0, "quarantined": 0}
			for _, w := range s.dist.FleetSnapshot().Workers {
				out[w.State]++
			}
			return out
		})
	s.reg.GaugeFuncVec("qisimd_fleet_worker_trust",
		"Per-worker trust: spot-checks passed since the worker's last quarantine (or first contact).", "worker",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, w := range s.dist.FleetSnapshot().Workers {
				out[w.ID] = float64(w.Trust)
			}
			return out
		})
	s.reg.GaugeFuncVec("qisimd_fleet_worker_leases",
		"Outstanding leases per worker.", "worker",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, w := range s.dist.FleetSnapshot().Workers {
				out[w.ID] = float64(w.Leases)
			}
			return out
		})
	s.reg.GaugeFuncVec("qisimd_fleet_worker_last_seen_seconds",
		"Age of each worker's last contact (claim, renewal, report or register).", "worker",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, w := range s.dist.FleetSnapshot().Workers {
				out[w.ID] = float64(w.LastSeenAgeMS) / 1e3
			}
			return out
		})
	s.reg.CounterFuncVec("qisimd_fleet_worker_units_total",
		"Units executed as counted by each worker itself, from its report telemetry.", "worker",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, w := range s.dist.FleetSnapshot().Workers {
				if w.Telemetry != nil {
					out[w.ID] = float64(w.Telemetry.UnitSeconds.Count)
				}
			}
			return out
		})
	s.reg.CounterFuncVec("qisimd_fleet_worker_chaos_injected_total",
		"Client-side chaos injections per worker, from its report telemetry.", "worker",
		func() map[string]float64 {
			out := map[string]float64{}
			for _, w := range s.dist.FleetSnapshot().Workers {
				if w.Telemetry != nil {
					out[w.ID] = float64(w.Telemetry.Chaos)
				}
			}
			return out
		})
	s.reg.HistogramFunc("qisimd_fleet_unit_seconds",
		"Unit wall clock across the whole fleet: every worker's own unit-seconds histogram merged.",
		func() metrics.HistogramSummary {
			// FleetSnapshot sorts workers by ID, so the merge order (and
			// with it the float sum) does not vary between scrapes.
			var out metrics.HistogramSummary
			for _, w := range s.dist.FleetSnapshot().Workers {
				if w.Telemetry != nil {
					out.Merge(w.Telemetry.UnitSeconds)
				}
			}
			return out
		})
}
