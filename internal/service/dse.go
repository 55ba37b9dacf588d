// Design-space exploration endpoints and executors (see DESIGN.md
// "Design-space exploration").
//
// dse.sweep is an ordinary pool job: its runner expands a parameter grid
// (internal/dse) and evaluates each wave's points in grid order, inline,
// through the same closed-form point analysis a dse.point job runs
// (scalability.GridPoint, about 7 µs a point). As waves commit, the runner
// folds the metrics into a Pareto frontier and publishes a "frontier" event
// per wave on the sweep's event log — the stream behind
// GET /v1/jobs/{id}/events. The sweep's own envelope is its only cache
// entry and its own submission its only journal record, so a crash
// recovers it from the journal like any other job.
//
// Determinism: for a fixed grid, objectives, wave size and prune policy the
// final frontier (and the whole result envelope) is byte-identical no
// matter how many pool workers the server runs, which tenants interleaved,
// or where a crash/recovery split the sweep — prune decisions read only
// fully committed waves (internal/dse's committed-prefix rule) and every
// point analysis is deterministic.
package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"time"

	"qisim/internal/dse"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/scalability"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

// ---- dse.point: one grid-point evaluation ----

// normalizeDSEPoint decodes, defaults and validates dse.point params.
func normalizeDSEPoint(raw json.RawMessage) (scalability.GridPoint, error) {
	var p scalability.GridPoint
	if err := decodeParams(raw, &p); err != nil {
		return p, err
	}
	if p.Design == "" {
		return p, simerr.Invalidf("service: dse.point needs a design name")
	}
	if _, ok := microarch.DesignByName(p.Design); !ok {
		return p, simerr.Invalidf("service: unknown design %q", p.Design)
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Distance < 3 || p.Distance%2 == 0 {
		return p, simerr.Invalidf("service: distance must be an odd integer >= 3, got %d", p.Distance)
	}
	if math.IsNaN(p.ExtraGateError) || p.ExtraGateError < 0 || p.ExtraGateError > 1 {
		return p, simerr.Invalidf("service: extra_gate_error must be in [0,1], got %v", p.ExtraGateError)
	}
	return p, nil
}

func buildDSEPoint(raw json.RawMessage) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, err := normalizeDSEPoint(raw)
	if err != nil {
		return "", "", nil, err
	}
	// Analyses are deterministic and seedless: seed 0 / shard 0 in the key.
	key, keyed, err := requestKey(jobs.KindDSEPoint, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	return jobs.KindDSEPoint, key, closedForm(jobs.KindDSEPoint, key, keyed, func() (any, error) {
		return p.Analyze()
	}), nil
}

// ---- dse.sweep: grid expansion, inline evaluation, streamed Pareto frontier ----

type dseSweepParams struct {
	Axes       []dse.Axis      `json:"axes"`
	Objectives []dse.Objective `json:"objectives"`
	Wave       int             `json:"wave"`
	Prune      *bool           `json:"prune"`
	Distance   int             `json:"distance"`
	Extended   bool            `json:"extended"`
}

// defaultObjectives is the paper's headline trade-off: qubit capacity
// against 4 K power against logical error rate.
func defaultObjectives() []dse.Objective {
	return []dse.Objective{
		{Metric: scalability.MetricMaxQubits, Goal: dse.Max},
		{Metric: scalability.MetricPower4K, Goal: dse.Min},
		{Metric: scalability.MetricLogicalError, Goal: dse.Min},
	}
}

func knownPointMetric(name string) bool {
	switch name {
	case scalability.MetricMaxQubits, scalability.MetricLogicalError,
		scalability.MetricPower4K, scalability.MetricPower100mK,
		scalability.MetricPower20mK, scalability.MetricErrorLimit:
		return true
	}
	return false
}

// normalizeDSESweep decodes, defaults and validates sweep params, returning
// the normalized params (the cache-key basis) and the validated grid.
func normalizeDSESweep(raw json.RawMessage) (dseSweepParams, dse.Grid, error) {
	var p dseSweepParams
	var zero dse.Grid
	if err := decodeParams(raw, &p); err != nil {
		return p, zero, err
	}
	if p.Distance == 0 {
		p.Distance = 23
	}
	if p.Distance < 3 || p.Distance%2 == 0 {
		return p, zero, simerr.Invalidf("service: distance must be an odd integer >= 3, got %d", p.Distance)
	}
	if p.Wave < 0 {
		return p, zero, simerr.Invalidf("service: wave must be positive, got %d", p.Wave)
	}
	if p.Wave == 0 {
		p.Wave = dse.DefaultWave
	}
	if p.Prune == nil {
		t := true
		p.Prune = &t
	}
	if len(p.Objectives) == 0 {
		p.Objectives = defaultObjectives()
	}
	if err := dse.CheckObjectives(p.Objectives); err != nil {
		return p, zero, err
	}
	for _, o := range p.Objectives {
		if !knownPointMetric(o.Metric) {
			return p, zero, simerr.Invalidf("service: unknown objective metric %q", o.Metric)
		}
	}
	// A grid without a design axis sweeps every named design.
	hasDesign := false
	for _, a := range p.Axes {
		if a.Name == scalability.CoordDesign {
			hasDesign = true
		}
	}
	if !hasDesign {
		names := []any{}
		for _, d := range microarch.AllDesigns() {
			names = append(names, d.Name)
		}
		p.Axes = append([]dse.Axis{{Name: scalability.CoordDesign, Values: names}}, p.Axes...)
	}
	grid := dse.Grid{Axes: p.Axes}
	vals, err := grid.Expanded()
	if err != nil {
		return p, zero, err
	}
	for i, a := range p.Axes {
		switch a.Name {
		case scalability.CoordDesign:
			if a.Values == nil {
				return p, zero, simerr.Invalidf("service: the design axis must list design names")
			}
			for _, v := range vals[i] {
				name, ok := v.(string)
				if !ok {
					return p, zero, simerr.Invalidf("service: design axis values must be strings, got %v", v)
				}
				if _, ok := microarch.DesignByName(name); !ok {
					return p, zero, simerr.Invalidf("service: unknown design %q", name)
				}
			}
		case scalability.CoordDistance:
			for _, v := range vals[i] {
				f, ok := v.(float64)
				if !ok || f != math.Trunc(f) || int(f) < 3 || int(f)%2 == 0 {
					return p, zero, simerr.Invalidf("service: distance axis values must be odd integers >= 3, got %v", v)
				}
			}
		case scalability.CoordExtraGateError:
			for _, v := range vals[i] {
				f, ok := v.(float64)
				if !ok || f < 0 || f > 1 {
					return p, zero, simerr.Invalidf("service: extra_gate_error axis values must be in [0,1], got %v", v)
				}
			}
		default:
			return p, zero, simerr.Invalidf("service: unknown axis %q (axes: %s, %s, %s)",
				a.Name, scalability.CoordDesign, scalability.CoordDistance, scalability.CoordExtraGateError)
		}
	}
	return p, grid, nil
}

// sweepResult is the dse.sweep result body: the deterministic outcome (with
// its final frontier block) plus the run status.
type sweepResult struct {
	dse.Outcome
	Status simrun.Status `json:"status"`
}

func buildDSESweep(raw json.RawMessage, env buildEnv) (jobs.Kind, rescache.Key, jobs.Runner, error) {
	p, grid, err := normalizeDSESweep(raw)
	if err != nil {
		return "", "", nil, err
	}
	key, keyed, err := requestKey(jobs.KindDSESweep, p, 0, 0)
	if err != nil {
		return "", "", nil, err
	}
	run := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		id := obs.JobID(ctx)
		pol := dse.Policy{Wave: p.Wave, Prune: *p.Prune}
		outcome, serr := dse.RunSweep(ctx, grid, p.Objectives, pol, sweepBound(p), sweepEval(p),
			func(pr dse.Progress) {
				progress(pr.Evaluated+pr.Pruned, pr.Total)
				if env.publish != nil {
					env.publish(id, "frontier", pr)
				}
			})
		st := simrun.Status{
			Requested:  outcome.GridSize,
			Completed:  outcome.Evaluated + outcome.Pruned,
			StopReason: simrun.StopCompleted,
		}
		if serr != nil {
			if !errors.Is(serr, simerr.ErrInterrupted) {
				return nil, simrun.Status{}, serr
			}
			// Cancellation/drain: publish the frontier of the committed
			// prefix as a Truncated partial (never cached), mirroring the
			// Monte-Carlo partial-result contract.
			st.Truncated = true
			st.StopReason = simrun.StopCanceled
		}
		body, merr := marshalEnvelope(jobs.KindDSESweep, key, keyed, 0, 0, sweepResult{outcome, st})
		if merr != nil {
			return nil, simrun.Status{}, merr
		}
		return body, st, nil
	}
	return jobs.KindDSESweep, key, run, nil
}

// sweepBound builds the optimistic-bound function pruning decisions use.
// scalability.PointBound is optimistic under the default goal directions;
// for any objective it does not cover exactly — error_limit, or max_qubits
// under an inverted (min) goal — the bound falls back to the goal's best
// possible value, which disables pruning on that axis rather than risking
// an unsound prune.
func sweepBound(pp dseSweepParams) dse.BoundFn {
	return func(pt dse.Point) map[string]float64 {
		b := scalability.PointAt(pt.Coords, pp.Distance, pp.Extended).Bound()
		if b == nil {
			return nil // validated at normalize; nil never prunes via StrictlyDominates
		}
		for _, o := range pp.Objectives {
			_, covered := b[o.Metric]
			inexactForGoal := o.Metric == scalability.MetricMaxQubits && o.Goal == dse.Min
			if !covered || inexactForGoal {
				if o.Goal == dse.Max {
					b[o.Metric] = math.Inf(1)
				} else {
					b[o.Metric] = math.Inf(-1)
				}
			}
		}
		return b
	}
}

// sweepEval evaluates one wave's points in grid order on the sweep's own
// goroutine. A cancellation between two points abandons the wave, which the
// committed-prefix rule then leaves out of the outcome.
func sweepEval(pp dseSweepParams) dse.EvalWave {
	return func(ctx context.Context, pts []dse.Point) ([]map[string]float64, error) {
		out := make([]map[string]float64, len(pts))
		for i, pt := range pts {
			if err := ctx.Err(); err != nil {
				return nil, simerr.Interruptedf("service: dse.sweep canceled mid-wave: %v", err)
			}
			m, err := scalability.PointAt(pt.Coords, pp.Distance, pp.Extended).Analyze()
			if err != nil {
				return nil, err
			}
			out[i] = m
		}
		return out, nil
	}
}

// ---- job listing, event streaming and cancellation endpoints ----

// List page bounds: an unbounded listing could serialize the whole record
// window (Config.MaxRecords) per poll.
const (
	defaultListLimit = 100
	maxListLimit     = 1000
)

// handleJobsList serves GET /v1/jobs: retained jobs newest first, filtered
// by ?kind= ?state= ?tenant=, page-bounded by ?limit= (default
// 100, max 1000). Result bodies are stripped — fetch an individual job (or
// its cached result) for the payload.
func (s *Server) handleJobsList(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	f := jobs.Filter{
		Kind:   jobs.Kind(q.Get("kind")),
		State:  jobs.State(q.Get("state")),
		Tenant: q.Get("tenant"),
	}
	if f.Kind != "" && !f.Kind.Valid() {
		s.writeError(w, simerr.Invalidf("service: unknown kind %q (kinds: %v)", f.Kind, jobs.Kinds()))
		return
	}
	switch f.State {
	case "", jobs.StateQueued, jobs.StateRunning, jobs.StateDone, jobs.StateFailed:
	default:
		s.writeError(w, simerr.Invalidf("service: unknown state %q (states: queued, running, done, failed)", f.State))
		return
	}
	limit := defaultListLimit
	if raw := q.Get("limit"); raw != "" {
		n, err := strconv.Atoi(raw)
		if err != nil || n <= 0 {
			s.writeError(w, simerr.Invalidf("service: limit must be a positive integer, got %q", raw))
			return
		}
		limit = n
	}
	if limit > maxListLimit {
		limit = maxListLimit
	}
	snaps := s.mgr.List(f, limit)
	for i := range snaps {
		snaps[i].Result = nil
	}
	writeJSON(w, http.StatusOK, struct {
		Jobs  []jobs.Snapshot `json:"jobs"`
		Count int             `json:"count"`
	}{snaps, len(snaps)})
}

// handleJobEvents serves GET /v1/jobs/{id}/events as Server-Sent Events:
// the job's retained event log replays first (id: carries the sequence
// number, so reconnecting clients can spot gaps), then live events stream
// until the job finalizes — the terminal state event is always last, after
// which the stream closes. Idle streams carry comment heartbeats
// (Server.sseHeartbeat) so dead subscribers are reaped on the next tick
// rather than holding their event subscription until a real event fires.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	past, ch, cancel, ok := s.mgr.Subscribe(id)
	if !ok {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	defer cancel()
	fl, canFlush := w.(http.Flusher)
	if !canFlush {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: "streaming unsupported by this connection"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(ev jobs.Event) error {
		// Event payloads are compact JSON (no newlines), so a single data:
		// line per event is always well-formed SSE framing.
		_, err := fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, ev.Data)
		fl.Flush()
		return err
	}
	for _, ev := range past {
		if emit(ev) != nil {
			return
		}
	}
	hb := time.NewTicker(s.sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case ev, open := <-ch:
			if !open {
				return // log sealed: the job finished
			}
			if emit(ev) != nil {
				return // dead subscriber: free the subscription now
			}
		case <-hb.C:
			// SSE comment line: ignored by clients, but the write fails
			// fast on a torn connection the context never noticed.
			if _, err := io.WriteString(w, ": hb\n\n"); err != nil {
				return
			}
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// handleJobCancel serves DELETE /v1/jobs/{id}: cancels the job, which
// finalizes as a Truncated partial; 202 acknowledges the cancellation has
// started, not that the job has finished.
func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.mgr.Cancel(id) {
		writeJSON(w, http.StatusNotFound, errorResponse{Error: "unknown job " + id})
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]any{"id": id, "canceled": true})
}
