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
	"net/http"
	"os"
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
// implements it over HTTP (real fleets).
type CoordinatorAPI interface {
	Register(ctx context.Context, info WorkerInfo) error
	// Claim returns the next work unit, or nil when none is available.
	// idemKey is the claim's idempotency key: a duplicated delivery of the
	// same key replays the same outcome instead of leasing a second unit
	// ("" opts out).
	Claim(ctx context.Context, workerID, idemKey string) (*LeaseGrant, error)
	// Renew extends a lease; ErrGone means abandon the unit. sum, when
	// non-nil, piggybacks the worker's metrics summary on the heartbeat
	// (the federation path — see Coordinator.Renew).
	Renew(ctx context.Context, workerID, key string, start, end int, sum *metrics.Summary) error
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
	// Advertise is the worker's own base URL, registered for health
	// probes ("" = unprobeable).
	Advertise string
	// Cores rebuilds the per-kind execution core for claimed grants.
	Cores CoreBuilder
	// PollInterval paces claim attempts when no work is available
	// (default 250ms).
	PollInterval time.Duration
	// Backoff paces retries of failed coordinator calls (zero =
	// backoff.Default).
	Backoff backoff.Policy
	// Seed seeds the poll-jitter RNG (0 = 1). Jitter never touches
	// simulation results.
	Seed   int64
	Logger *slog.Logger
	// Trace enables per-unit tracing: each executed window records a
	// local trace shipped with the report, which the coordinator grafts
	// into the job's cross-node trace.
	Trace bool
	// Metrics, when set, samples the worker's metrics summary to piggyback
	// on lease renewals and unit reports (federation). Typically the
	// worker-local registry's Summary method.
	Metrics func() metrics.Summary
	// Flight, when set, records the worker-side lease lifecycle (claims,
	// reports, abandons) into the worker's flight-recorder ring.
	Flight *obs.FlightRecorder
	// UnitSeconds, when set, observes each fully executed unit's wall
	// clock — the feed for the worker-local qisimd_worker_unit_seconds
	// histogram that federation folds into qisimd_fleet_unit_seconds.
	UnitSeconds func(seconds float64)
}

// Worker is the claim → execute → report loop of one fleet member.
type Worker struct {
	cfg WorkerConfig
	rnd *rand.Rand

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
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	}
	return &Worker{cfg: cfg, rnd: rand.New(rand.NewSource(cfg.Seed))}, nil
}

// WorkerStats is a snapshot of the worker loop's lifetime counters.
type WorkerStats struct {
	// Claims counts granted leases; Executions the units run to
	// completion; Reports the accepted uploads; Abandoned the units
	// dropped on ErrGone (lease lost or upload refused).
	Claims, Executions, Reports, Abandoned int64
}

// Stats snapshots the worker's counters (the worker-local registry exports
// them as qisimd_worker_* for federation).
func (w *Worker) Stats() WorkerStats {
	return WorkerStats{
		Claims:     w.claims.Load(),
		Executions: w.execs.Load(),
		Reports:    w.reports.Load(),
		Abandoned:  w.abandoned.Load(),
	}
}

// Drain stops the claim loop after the in-flight unit: the worker finishes
// what it holds (its lease stays valid but non-renewable once the
// coordinator notices the drain), reports, and Run returns.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run registers and then loops claim → execute → report until ctx is done
// or Drain is called. Each in-flight unit is heartbeat-renewed at TTL/3; a
// renewal answered with ErrGone abandons the unit (its lease expired and
// the coordinator re-dispatched it — finishing would only produce a
// harmless duplicate report, so the worker stops wasting the cycles).
func (w *Worker) Run(ctx context.Context) error {
	if err := w.cfg.Coordinator.Register(ctx, WorkerInfo{ID: w.cfg.ID, Addr: w.cfg.Advertise}); err != nil {
		return fmt.Errorf("dist: worker %s register: %w", w.cfg.ID, err)
	}
	for ctx.Err() == nil && !w.draining.Load() {
		// One idempotency key per logical claim: transport-level retries
		// and duplicated deliveries of THIS claim collapse to one lease.
		idemKey := fmt.Sprintf("%s.c%d", w.cfg.ID, w.claimSeq.Add(1))
		grant, err := w.cfg.Coordinator.Claim(ctx, w.cfg.ID, idemKey)
		if err != nil {
			w.cfg.Logger.Warn("dist: claim failed", "worker", w.cfg.ID, "err", err)
			if !backoff.Sleep(ctx, w.cfg.Backoff.Delay(0, w.randFloat)) {
				break
			}
			continue
		}
		if grant == nil {
			// No work: jittered poll so an idle fleet does not stampede.
			d := w.cfg.PollInterval/2 + time.Duration(w.randFloat()*float64(w.cfg.PollInterval))
			if !backoff.Sleep(ctx, d) {
				break
			}
			continue
		}
		w.claims.Add(1)
		w.cfg.Flight.Record("worker.claim", obs.String("worker", w.cfg.ID),
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
					err := w.cfg.Coordinator.Renew(unitCtx, w.cfg.ID, g.Key, g.Start, g.End, w.summary())
					if errors.Is(err, ErrGone) {
						w.abandoned.Add(1)
						w.cfg.Flight.Record("worker.abandon", obs.String("worker", w.cfg.ID),
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
	if runErr == nil && w.cfg.UnitSeconds != nil {
		w.cfg.UnitSeconds(time.Since(unitStart).Seconds())
	}
	close(hbStop)
	hbWG.Wait()
	if runErr != nil {
		// Interrupted or failed: report nothing — the lease expires and
		// the range re-runs elsewhere, reproducing the same bytes.
		w.cfg.Logger.Warn("dist: window failed", "worker", w.cfg.ID,
			"key", g.Key, "start", g.Start, "end", g.End, "err", runErr)
		return
	}
	w.execs.Add(1)

	res := UnitResult{Kind: g.Kind, Key: g.Key, Start: g.Start, End: g.End,
		States: states, Events: events, Worker: w.cfg.ID}
	if tracer != nil {
		tr := tracer.Snapshot()
		res.Trace = &tr
	}
	res.Metrics = w.summary()
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
		w.cfg.Flight.Record("worker.abandon", obs.String("worker", w.cfg.ID),
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
	w.cfg.Flight.Record("worker.report", obs.String("worker", w.cfg.ID),
		obs.String("key", g.Key), obs.Int("start", g.Start), obs.Int("end", g.End))
}

// summary samples the configured metrics provider (nil when unset).
func (w *Worker) summary() *metrics.Summary {
	if w.cfg.Metrics == nil {
		return nil
	}
	s := w.cfg.Metrics()
	return &s
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
	// Rand is the jitter source (nil = worst-case delays).
	Rand func() float64
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
	err = backoff.Retry(ctx, c.Backoff, c.attempts(), c.Rand,
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

// Register implements CoordinatorAPI.
func (c *Client) Register(ctx context.Context, info WorkerInfo) error {
	body, err := json.Marshal(info)
	if err != nil {
		return err
	}
	_, err = c.post(ctx, "/v1/dist/register", jsonHeader, body, nil)
	return err
}

type claimRequest struct {
	Worker string `json:"worker"`
	// IdemKey is the claim's idempotency key (see CoordinatorAPI.Claim).
	IdemKey string `json:"idem_key,omitempty"`
}

// Claim implements CoordinatorAPI (nil grant = no work, from 204).
func (c *Client) Claim(ctx context.Context, workerID, idemKey string) (*LeaseGrant, error) {
	body, err := json.Marshal(claimRequest{Worker: workerID, IdemKey: idemKey})
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
		if !backoff.Sleep(ctx, c.Backoff.Delay(attempt, c.Rand)) {
			return nil, ctx.Err()
		}
	}
}

type renewRequest struct {
	Worker string `json:"worker"`
	Key    string `json:"key"`
	Start  int    `json:"start"`
	End    int    `json:"end"`
	// Metrics piggybacks the worker's federated summary on the heartbeat.
	Metrics *metrics.Summary `json:"metrics,omitempty"`
}

// Renew implements CoordinatorAPI (410 → ErrGone, not retried).
func (c *Client) Renew(ctx context.Context, workerID, key string, start, end int, sum *metrics.Summary) error {
	body, err := json.Marshal(renewRequest{Worker: workerID, Key: key, Start: start, End: end, Metrics: sum})
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

// ProbeHTTP returns a Config.Probe that GETs {addr}/readyz and reports the
// JSON status field ("ok" on 200, the advertised status on 503, an error
// on transport failure).
func ProbeHTTP(client *http.Client, timeout time.Duration) func(ctx context.Context, addr string) (string, error) {
	if client == nil {
		client = http.DefaultClient
	}
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	return func(ctx context.Context, addr string) (string, error) {
		pctx, cancel := context.WithTimeout(ctx, timeout)
		defer cancel()
		req, err := http.NewRequestWithContext(pctx, http.MethodGet, addr+"/readyz", nil)
		if err != nil {
			return "", err
		}
		resp, err := client.Do(req)
		if err != nil {
			return "", err
		}
		defer resp.Body.Close()
		var st struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&st); err != nil || st.Status == "" {
			if resp.StatusCode == http.StatusOK {
				return "ok", nil
			}
			return "", fmt.Errorf("dist: probe %s: %s", addr, resp.Status)
		}
		return st.Status, nil
	}
}
