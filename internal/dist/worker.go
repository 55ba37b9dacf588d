package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	randv2 "math/rand/v2"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"qisim/internal/backoff"
	"qisim/internal/metrics"
	"qisim/internal/obs"
	"qisim/internal/simerr"
)

// CoordinatorAPI is the coordinator surface a worker drives. The
// Coordinator implements it directly (in-process fleets, tests); Client
// implements it over HTTP (real fleets). Every call is contact: the first
// admits the worker, and the coordinator counts it live while it keeps
// calling.
type CoordinatorAPI interface {
	// Claim returns the next work unit, or nil when none is available.
	// idemKey is the claim's idempotency key: a duplicated delivery of the
	// same key replays the same outcome instead of leasing a second unit
	// ("" opts out). wait is how long the coordinator may hold the claim
	// for work to arrive before it answers nil (0 = answer at once).
	Claim(ctx context.Context, workerID, idemKey string, wait time.Duration) (*LeaseGrant, error)
	// Renew extends a lease; ErrGone means abandon the unit.
	Renew(ctx context.Context, workerID, key string, start, end int) error
	// Report uploads a unit result container (idempotent).
	Report(ctx context.Context, workerID string, container []byte) error
}

// CoreBuilder rebuilds a job kind's execution core from the grant's
// parameters on the worker side.
type CoreBuilder func(kind string, params json.RawMessage) (Core, error)

// WorkerConfig parameterises a Worker.
type WorkerConfig struct {
	ID          string
	Coordinator CoordinatorAPI
	// Cores rebuilds the per-kind execution core for claimed grants.
	Cores CoreBuilder
	// PollInterval is the longest the coordinator holds an empty claim
	// before it answers "no work" (default 250ms; the coordinator caps it
	// at LeaseTTL/4). After a held empty answer the worker claims again at
	// once; an answer that came back sooner (a quarantined worker, or a
	// coordinator that does not hold) waits out the rest of a jittered
	// PollInterval, so an idle worker sends about one claim per interval.
	PollInterval time.Duration
	// Backoff paces retries of failed coordinator calls (zero =
	// backoff.Default).
	Backoff backoff.Policy
	// Seed seeds the jitter of early-answered claims, claim backoff and
	// report retries (0 = a random seed, so workers started together draw
	// apart). Jitter never touches simulation results.
	Seed   int64
	Logger *slog.Logger
	// Trace enables per-unit tracing: each executed window records a
	// local trace shipped with the report, which the coordinator grafts
	// into the job's cross-node trace.
	Trace bool
	// Flight, when set, records the worker-side lease lifecycle (claims,
	// reports, abandons) as events on the worker's flight-recorder tracer.
	Flight *obs.Tracer
	// Chaos, when set, reads how many faults the worker's chaos transport
	// has injected: the one count of its Telemetry the worker cannot keep
	// itself.
	Chaos func() int64
}

// Worker is the claim → execute → report loop of one fleet member.
type Worker struct {
	cfg         WorkerConfig
	rnd         *rand.Rand
	unitSeconds *metrics.Histogram

	draining  atomic.Bool
	mu        sync.Mutex // guards rnd
	claimSeq  atomic.Int64
	claims    atomic.Int64
	execs     atomic.Int64 // units fully executed (the chaos tests' re-run counter)
	reports   atomic.Int64
	abandoned atomic.Int64
}

// NewWorker builds a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.ID == "" {
		return nil, simerr.Invalidf("dist: worker needs an ID")
	}
	if cfg.Coordinator == nil || cfg.Cores == nil {
		return nil, simerr.Invalidf("dist: worker needs a coordinator and a core builder")
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 250 * time.Millisecond
	}
	cfg.Logger = obs.OrDiscard(cfg.Logger)
	if cfg.Seed == 0 {
		cfg.Seed = randv2.Int64()
	}
	return &Worker{cfg: cfg, rnd: rand.New(rand.NewSource(cfg.Seed)),
		unitSeconds: metrics.NewHistogram(metrics.DefaultLatencyBuckets())}, nil
}

// WorkerStats is a snapshot of the worker loop's lifetime counters.
type WorkerStats struct {
	// Claims counts granted leases; Executions the units run to
	// completion; Reports the accepted uploads; Abandoned the units
	// dropped on ErrGone (lease lost or upload refused).
	Claims, Executions, Reports, Abandoned int64
	// UnitSeconds is the wall clock of the units run to completion.
	UnitSeconds metrics.HistogramSummary
}

// Stats snapshots the worker's counters (the worker-local registry exports
// them as qisimd_worker_*).
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Claims:      w.claims.Load(),
		Executions:  w.execs.Load(),
		Reports:     w.reports.Load(),
		Abandoned:   w.abandoned.Load(),
		UnitSeconds: w.unitSeconds.Summary(),
	}
}

// Drain stops the claim loop after the in-flight unit: the worker finishes
// what it holds, renewing and reporting as usual, and Run returns.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run loops claim → execute → report until ctx is done or Drain is called.
// The first claim admits the worker; a failed claim is retried after a
// backoff, so a worker started before its coordinator joins once the
// coordinator answers. Each in-flight unit is heartbeat-renewed at TTL/3; a
// renewal answered with ErrGone abandons the unit (its lease expired and
// the coordinator re-dispatched it — finishing would only produce a
// harmless duplicate report, so the worker stops wasting the cycles).
func (w *Worker) Run(ctx context.Context) error {
	for ctx.Err() == nil && !w.draining.Load() {
		// One idempotency key per logical claim: transport-level retries
		// and duplicated deliveries of THIS claim collapse to one lease.
		idemKey := fmt.Sprintf("%s.c%d", w.cfg.ID, w.claimSeq.Add(1))
		asked := time.Now()
		grant, err := w.cfg.Coordinator.Claim(ctx, w.cfg.ID, idemKey, w.cfg.PollInterval)
		if err != nil {
			w.cfg.Logger.Warn("dist: claim failed", "worker", w.cfg.ID, "err", err)
			if !backoff.Sleep(ctx, w.cfg.Backoff.Delay(0, w.randFloat)) {
				break
			}
			continue
		}
		if grant == nil {
			// No work after a full hold: claim again at once. An answer that
			// came back early waits out the rest of a jittered poll, so an
			// idle fleet neither spins nor stampedes.
			if held := time.Since(asked); held < w.cfg.PollInterval {
				d := w.cfg.PollInterval/2 + time.Duration(w.randFloat()*float64(w.cfg.PollInterval)) - held
				if !backoff.Sleep(ctx, d) {
					break
				}
			}
			continue
		}
		w.claims.Add(1)
		w.cfg.Flight.Event("worker.claim", obs.String("worker", w.cfg.ID),
			obs.String("key", grant.Key), obs.Int("start", grant.Start), obs.Int("end", grant.End))
		w.runUnit(ctx, grant)
	}
	return ctx.Err()
}

func (w *Worker) randFloat() float64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.rnd.Float64()
}

// runUnit executes one claimed grant: window execution under the
// propagated deadline, heartbeat renewal, and idempotent report.
func (w *Worker) runUnit(ctx context.Context, g *LeaseGrant) {
	core, err := w.cfg.Cores(g.Kind, g.Params)
	if err != nil {
		w.cfg.Logger.Warn("dist: cannot build core for grant", "kind", g.Kind, "err", err)
		return // lease expires; the coordinator retries elsewhere
	}

	unitCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	if g.DeadlineMS > 0 {
		var cancelDL context.CancelFunc
		unitCtx, cancelDL = context.WithTimeout(unitCtx, time.Duration(g.DeadlineMS)*time.Millisecond)
		defer cancelDL()
	}

	var tracer *obs.Tracer
	if w.cfg.Trace {
		tracer = obs.NewTracer(obs.TracerConfig{ID: w.cfg.ID})
		unitCtx = obs.WithTracer(unitCtx, tracer)
	}

	// Heartbeat: renew at TTL/3; ErrGone cancels the window (all-or-
	// nothing, so nothing partial is ever reported).
	hbStop := make(chan struct{})
	var hbWG sync.WaitGroup
	if g.TTLMS > 0 {
		hbWG.Add(1)
		go func() {
			defer hbWG.Done()
			t := time.NewTicker(time.Duration(g.TTLMS) * time.Millisecond / 3)
			defer t.Stop()
			for {
				select {
				case <-hbStop:
					return
				case <-unitCtx.Done():
					return
				case <-t.C:
					err := w.cfg.Coordinator.Renew(unitCtx, w.cfg.ID, g.Key, g.Start, g.End)
					if errors.Is(err, ErrGone) {
						w.abandoned.Add(1)
						w.cfg.Flight.Event("worker.abandon", obs.String("worker", w.cfg.ID),
							obs.String("key", g.Key), obs.Int("start", g.Start), obs.Int("end", g.End),
							obs.String("cause", "renew-gone"))
						cancel()
						return
					}
					if err != nil {
						w.cfg.Logger.Warn("dist: renew failed", "worker", w.cfg.ID, "err", err)
					}
				}
			}
		}()
	}

	unitStart := time.Now()
	states, events, runErr := core.RunWindow(unitCtx, g.Plan, g.Start, g.End)
	unitSecs := time.Since(unitStart).Seconds()
	close(hbStop)
	hbWG.Wait()
	if runErr != nil {
		// Interrupted or failed: report nothing — the lease expires and
		// the range re-runs elsewhere, reproducing the same bytes.
		w.cfg.Logger.Warn("dist: window failed", "worker", w.cfg.ID,
			"key", g.Key, "start", g.Start, "end", g.End, "err", runErr)
		return
	}
	w.unitSeconds.Observe(unitSecs)
	w.execs.Add(1)

	res := UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start, End: g.End,
		States: states, Events: events, Worker: w.cfg.ID, Telemetry: w.telemetry()}
	if tracer != nil {
		tr := tracer.Snapshot()
		res.Trace = &tr
	}
	body, err := EncodeUnitResult(res)
	if err != nil {
		w.cfg.Logger.Warn("dist: encode unit result", "err", err)
		return
	}
	// Report with retries on a background-ish context: the work is done
	// and the upload is idempotent, so even a draining worker pushes the
	// result out (parent cancellation still applies through ctx).
	err = backoff.Retry(ctx, w.cfg.Backoff, 4, w.randFloat,
		func(rctx context.Context) (bool, time.Duration, error) {
			if err := w.cfg.Coordinator.Report(rctx, w.cfg.ID, body); err != nil {
				if errors.Is(err, ErrGone) {
					return false, 0, err // 410: the upload is refused outright, not worth retrying
				}
				return true, 0, err
			}
			return false, 0, nil
		})
	if errors.Is(err, ErrGone) {
		// Quarantined reporter or vanished job: abandon the unit as the
		// 410 instructs instead of re-pushing a rejected upload.
		w.abandoned.Add(1)
		w.cfg.Flight.Event("worker.abandon", obs.String("worker", w.cfg.ID),
			obs.String("key", g.Key), obs.Int("start", g.Start), obs.Int("end", g.End),
			obs.String("cause", "report-refused"))
		w.cfg.Logger.Warn("dist: report refused; abandoning unit", "worker", w.cfg.ID,
			"key", g.Key, "start", g.Start, "end", g.End)
		return
	}
	if err != nil {
		w.cfg.Logger.Warn("dist: report failed", "worker", w.cfg.ID, "err", err)
		return
	}
	w.reports.Add(1)
	w.cfg.Flight.Event("worker.report", obs.String("worker", w.cfg.ID),
		obs.String("key", g.Key), obs.Int("start", g.Start), obs.Int("end", g.End))
}

// telemetry is what the worker reports of itself with each unit.
func (w *Worker) telemetry() *Telemetry {
	t := &Telemetry{UnitSeconds: w.unitSeconds.Summary()}
	if w.cfg.Chaos != nil {
		t.Chaos = w.cfg.Chaos()
	}
	return t
}

// Client is the HTTP implementation of CoordinatorAPI, speaking qisimd's
// /v1/dist endpoints with capped-exponential/full-jitter retries that
// honor Retry-After hints (on 429 AND 503, with jitter layered on top so
// a hinted fleet fans back out instead of stampeding in lockstep) and a
// per-RPC deadline on every attempt.
type Client struct {
	// Base is the coordinator's base URL (e.g. "http://127.0.0.1:8080").
	Base string
	// HTTP is the transport (default http.DefaultClient).
	HTTP *http.Client
	// Backoff paces retries (zero = backoff.Default).
	Backoff backoff.Policy
	// MaxAttempts bounds retries per call (default 4).
	MaxAttempts int
	// RPCTimeout caps each individual attempt (default 15s; negative
	// disables). Without it one black-holed TCP connection stalls the
	// whole claim loop for the kernel's timeout, not ours.
	RPCTimeout time.Duration
	// Rand is the jitter source (nil = the auto-seeded math/rand/v2
	// source, so a fleet's retries spread out instead of firing in step).
	Rand func() float64
}

// jitter returns the retry jitter source.
func (c *Client) jitter() func() float64 {
	if c.Rand != nil {
		return c.Rand
	}
	return randv2.Float64
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

func (c *Client) attempts() int {
	if c.MaxAttempts > 0 {
		return c.MaxAttempts
	}
	return 4
}

func (c *Client) rpcTimeout() time.Duration {
	if c.RPCTimeout < 0 {
		return 0
	}
	if c.RPCTimeout == 0 {
		return 15 * time.Second
	}
	return c.RPCTimeout
}

// attemptCtx applies the per-RPC deadline to one attempt.
func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if d := c.rpcTimeout(); d > 0 {
		return context.WithTimeout(ctx, d)
	}
	return ctx, func() {}
}

// jsonHeader is the request header of every JSON RPC.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// post sends one body with the given request headers (canonical keys) and
// decodes the response into out (when non-nil). Retryable statuses: 429,
// 502, 503, 504 and transport errors. 410 maps to ErrGone, 204 to
// (false-ish) noContent.
func (c *Client) post(ctx context.Context, path string, header http.Header, body []byte, out any) (noContent bool, err error) {
	err = backoff.Retry(ctx, c.Backoff, c.attempts(), c.jitter(),
		func(rctx context.Context) (bool, time.Duration, error) {
			actx, cancel := c.attemptCtx(rctx)
			defer cancel()
			req, err := http.NewRequestWithContext(actx, http.MethodPost, c.Base+path, bytes.NewReader(body))
			if err != nil {
				return false, 0, err
			}
			for k, v := range header {
				req.Header[k] = v
			}
			resp, err := c.http().Do(req)
			if err != nil {
				if ctx.Err() != nil {
					return false, 0, err // caller gone, not the network
				}
				return true, 0, err
			}
			defer resp.Body.Close()
			switch {
			case resp.StatusCode == http.StatusNoContent:
				noContent = true
				return false, 0, nil
			case resp.StatusCode == http.StatusGone:
				return false, 0, ErrGone
			case resp.StatusCode == http.StatusTooManyRequests ||
				resp.StatusCode == http.StatusBadGateway ||
				resp.StatusCode == http.StatusServiceUnavailable ||
				resp.StatusCode == http.StatusGatewayTimeout:
				// Retry-After is honored on 429 and 503 alike (a draining
				// coordinator answers 503 with a hint); backoff.Retry adds
				// full jitter on top of the hint.
				hint, _ := backoff.RetryAfter(resp)
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				return true, hint, fmt.Errorf("dist: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
			case resp.StatusCode != http.StatusOK:
				msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
				return false, 0, fmt.Errorf("dist: %s: %s: %s", path, resp.Status, bytes.TrimSpace(msg))
			}
			if out == nil {
				io.Copy(io.Discard, resp.Body)
				return false, 0, nil
			}
			if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
				return false, 0, fmt.Errorf("dist: %s: decode response: %w", path, err)
			}
			return false, 0, nil
		})
	return noContent, err
}

// ClaimRequest is the body of POST /v1/dist/claim.
type ClaimRequest struct {
	Worker string `json:"worker"`
	// IdemKey is the claim's idempotency key (see CoordinatorAPI.Claim).
	IdemKey string `json:"idem_key,omitempty"`
	// WaitMS is how long the coordinator may hold the claim, in
	// milliseconds (see CoordinatorAPI.Claim).
	WaitMS int64 `json:"wait_ms,omitempty"`
}

// Wait is the claim's hold as a duration.
func (r ClaimRequest) Wait() time.Duration { return time.Duration(r.WaitMS) * time.Millisecond }

// decodeBody decodes a worker request body into v: one JSON value followed
// by nothing but whitespace.
func decodeBody(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("data after the request object")
	}
	return nil
}

// DecodeClaimRequest reads a claim body. It refuses a body that does not
// decode, has data after its object or names no worker, and clamps WaitMS
// into [0, maxWait].
func DecodeClaimRequest(r io.Reader, maxWait time.Duration) (ClaimRequest, error) {
	var req ClaimRequest
	if err := decodeBody(r, &req); err != nil || req.Worker == "" {
		return ClaimRequest{}, simerr.Invalidf("dist: claim needs one JSON object naming a worker")
	}
	req.WaitMS = max(min(req.WaitMS, maxWait.Milliseconds()), 0)
	return req, nil
}

// Claim implements CoordinatorAPI (nil grant = no work, from 204).
func (c *Client) Claim(ctx context.Context, workerID, idemKey string, wait time.Duration) (*LeaseGrant, error) {
	body, err := json.Marshal(ClaimRequest{Worker: workerID, IdemKey: idemKey, WaitMS: wait.Milliseconds()})
	if err != nil {
		return nil, err
	}
	// A grant corrupted in transit can survive JSON decoding with a wrong
	// window, seed or plan — the worker would then compute honest bytes
	// over garbage and fail the coordinator's spot-check. Refuse such a
	// grant and re-claim with the SAME idempotency key: the coordinator has
	// already recorded the lease under that key, so the replay returns the
	// recorded grant intact. Failing terminally here would strand the
	// leased unit until TTL expiry (the caller's next claim mints a fresh
	// key, which grants a different unit).
	for attempt := 0; ; attempt++ {
		var raw json.RawMessage
		noContent, err := c.post(ctx, "/v1/dist/claim", jsonHeader, body, &raw)
		if err != nil {
			return nil, err
		}
		if noContent {
			return nil, nil
		}
		g, err := decodeLeaseGrant(raw)
		if err == nil {
			return g, nil
		}
		if attempt+1 >= c.attempts() {
			return nil, err
		}
		if !backoff.Sleep(ctx, c.Backoff.Delay(attempt, c.jitter())) {
			return nil, ctx.Err()
		}
	}
}

// RenewRequest is the body of POST /v1/dist/renew.
type RenewRequest struct {
	Worker string `json:"worker"`
	Key    string `json:"key"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
}

// DecodeRenewRequest reads a renew body. It refuses a body that does not
// decode, has data after its object or names no worker.
func DecodeRenewRequest(r io.Reader) (RenewRequest, error) {
	var req RenewRequest
	if err := decodeBody(r, &req); err != nil || req.Worker == "" {
		return RenewRequest{}, simerr.Invalidf("dist: renew needs one JSON object with worker, key and range")
	}
	return req, nil
}

// Renew implements CoordinatorAPI (410 → ErrGone, not retried).
func (c *Client) Renew(ctx context.Context, workerID, key string, start, end int) error {
	body, err := json.Marshal(RenewRequest{Worker: workerID, Key: key, Start: start, End: end})
	if err != nil {
		return err
	}
	_, err = c.post(ctx, "/v1/dist/renew", jsonHeader, body, nil)
	return err
}

// Report implements CoordinatorAPI: the body is the QISNAP01 unit
// container; the worker identity rides in a header.
func (c *Client) Report(ctx context.Context, workerID string, container []byte) error {
	header := http.Header{"Content-Type": {"application/octet-stream"}}
	header.Set("X-QIsim-Worker", workerID)
	_, err := c.post(ctx, "/v1/dist/report", header, container, nil)
	return err
}
