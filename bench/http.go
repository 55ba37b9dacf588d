package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"qisim/internal/dist"
	"qisim/internal/microarch"
	"qisim/internal/obs"
	"qisim/internal/service"
)

// request is one job submission of a workload's seeded sequence.
type request struct {
	kind string
	body []byte
}

func (q request) mc() bool { return strings.HasSuffix(q.kind, ".mc") }

// Resubmissions repeat an MC request this many positions back or more, so
// the original has finished and the repeat is a cache hit.
const (
	resubmitMinBack = 16
	resubmitMaxBack = 128
)

// serviceRequests is the service traffic mix: 40% fresh surface.mc, 30%
// fresh readout.mc, 10% scalability.analyze of a random design and odd
// distance, and 20% exact resubmissions of an earlier MC request. The first
// request, the set-up's warm-up job, is always a fresh surface.mc, so set-up
// time does not depend on the seed. Surface and readout jobs take about
// equally long, so the median latency falls among the MC jobs rather than on
// a gap between two kinds.
func serviceRequests(seed int64, n int, quick bool) []request {
	rng := rand.New(rand.NewSource(seed))
	var designs []string
	for _, d := range microarch.AllDesigns() {
		designs = append(designs, d.Name)
	}
	surfaceShots, readoutShots := 16384, 327680
	if quick {
		surfaceShots, readoutShots = 2048, 32768
	}
	surfaceReq := func() request {
		return request{kind: "surface.mc", body: []byte(fmt.Sprintf(
			`{"kind":"surface.mc","params":{"distance":5,"shots":%d,"shard_size":2048,"seed":%d,"workers":1}}`,
			surfaceShots, rng.Int63n(1<<62)+1))}
	}
	reqs := make([]request, 0, n)
	for i := 0; i < n; i++ {
		switch u := rng.Float64(); {
		case u < 0.4 || i == 0:
			reqs = append(reqs, surfaceReq())
		case u < 0.7:
			reqs = append(reqs, request{kind: "readout.mc", body: []byte(fmt.Sprintf(
				`{"kind":"readout.mc","params":{"shots":%d,"shard_size":32768,"seed":%d,"workers":1}}`,
				readoutShots, rng.Int63n(1<<62)+1))})
		case u < 0.8:
			reqs = append(reqs, request{kind: "scalability.analyze", body: []byte(fmt.Sprintf(
				`{"kind":"scalability.analyze","params":{"designs":[%q],"distance":%d}}`,
				designs[rng.Intn(len(designs))], 3+2*rng.Intn(12)))})
		default:
			j := -1
			if i >= resubmitMinBack {
				back := resubmitMinBack + rng.Intn(resubmitMaxBack-resubmitMinBack+1)
				for j = max(i-back, 0); j >= 0 && !reqs[j].mc(); j-- {
				}
			}
			if j >= 0 {
				reqs = append(reqs, reqs[j])
			} else {
				reqs = append(reqs, surfaceReq())
			}
		}
	}
	return reqs
}

// fleetRequests repeats fresh surface.mc, surface.mc, readout.mc jobs (16
// and 40 work units). Two kinds in unequal shares keep the median latency
// inside one kind's spread rather than on the gap between the kinds.
func fleetRequests(seed int64, n int, quick bool) []request {
	rng := rand.New(rand.NewSource(seed))
	surfaceShots, readoutShots := 65536, 327680
	if quick {
		surfaceShots, readoutShots = 8192, 40960
	}
	reqs := make([]request, n)
	for i := range reqs {
		if i%3 != 2 {
			reqs[i] = request{kind: "surface.mc", body: []byte(fmt.Sprintf(
				`{"kind":"surface.mc","params":{"distance":5,"shots":%d,"shard_size":1024,"seed":%d}}`,
				surfaceShots, rng.Int63n(1<<62)+1))}
		} else {
			reqs[i] = request{kind: "readout.mc", body: []byte(fmt.Sprintf(
				`{"kind":"readout.mc","params":{"shots":%d,"shard_size":2048,"seed":%d}}`,
				readoutShots, rng.Int63n(1<<62)+1))}
		}
	}
	return reqs
}

// httpWorkload drives qisimd over loopback HTTP with a closed loop of one
// client, which waits for each job's result before submitting the next: on
// a host of a few cores, more jobs at once would time the scheduler rather
// than the program. `service` runs a standalone server; `fleet` runs a
// coordinator plus one in-process dist worker per core. Both servers keep
// everything in memory, except that a traced `service` run gives its server
// a data dir so the checkpoint and journal layers are measured. Untraced runs
// stay off the disk: fsync time on a shared disk follows the other tenants'
// I/O, and swings by more than any bound the end-to-end metrics could carry.
type httpWorkload struct {
	r     *run
	fleet bool
	reqs  []request
	next  int             // index of the next request
	bands map[string]band // job kind → pinned rate

	dataDir     string
	srv         *service.Server
	ts          *httptest.Server
	client      *http.Client
	stopWorkers context.CancelFunc
	workers     sync.WaitGroup
	calls       *callRecorder // fleet workers' coordinator RPCs
	closed      bool

	bodies    map[string][]byte // result key → first result seen
	firstMiss []request         // the first MC misses, replayed in finish
	missBody  [][]byte
	agg       layerAgg // traced phase only
	scrape0   map[string]float64
}

// replayedMisses is how many MC misses finish re-runs on a fresh standalone
// server.
const replayedMisses = 8

// maxRecords bounds the finished-job records (and their traces) the server
// keeps, so its memory stops growing early in a run instead of tracking how
// many jobs the run completed.
const maxRecords = 64

// fleetPoll is the fleet workers' claim poll interval. With one client the
// fleet idles between jobs, and the default 250 ms poll would be most of a
// job's latency.
const fleetPoll = 5 * time.Millisecond

func newHTTP(r *run, fleet bool) *httpWorkload {
	return &httpWorkload{r: r, fleet: fleet, bodies: map[string][]byte{}}
}

func (w *httpWorkload) setup(ctx context.Context) error {
	p, err := loadPins()
	if err != nil {
		return err
	}
	w.bands = map[string]band{}
	for kind, name := range map[string]string{"surface.mc": "surface-d5", "readout.mc": "readout-multiround"} {
		if w.bands[kind], err = p.band(name); err != nil {
			return err
		}
	}
	if w.fleet {
		w.reqs = fleetRequests(w.r.cfg.Seed, 4096, w.r.cfg.Quick)
	} else {
		w.reqs = serviceRequests(w.r.cfg.Seed, 16384, w.r.cfg.Quick)
	}
	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		return err
	}
	cfg := service.Config{MaxRecords: maxRecords}
	switch {
	case w.fleet:
		cfg.Dist = service.DistConfig{Enabled: true}
	case w.r.cfg.Trace:
		if w.dataDir, err = os.MkdirTemp(buildDir, "data-"); err != nil {
			return err
		}
		cfg.DataDir = w.dataDir
	}
	if w.srv, err = service.New(cfg); err != nil {
		return err
	}
	w.srv.Start()
	if _, err := w.srv.Recover(); err != nil {
		return err
	}
	w.ts = httptest.NewServer(w.srv.Handler())
	w.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}
	if w.fleet {
		if err := w.startWorkers(ctx); err != nil {
			return err
		}
	}
	_, err = w.do(ctx, w.ts.URL, w.reqs[0], false)
	w.next = 1
	return err
}

// startWorkers starts one fleet worker per core with the default lease
// settings and waits until the coordinator lists them.
func (w *httpWorkload) startWorkers(ctx context.Context) error {
	w.calls = &callRecorder{}
	wctx, cancel := context.WithCancel(ctx)
	w.stopWorkers = cancel
	n := runtime.NumCPU()
	for i := 0; i < n; i++ {
		id := fmt.Sprintf("bench-w%d", i+1)
		client := &dist.Client{Base: w.ts.URL, HTTP: &http.Client{Transport: &timingTransport{
			base: &http.Transport{}, worker: id, rec: w.calls}}}
		wk, err := dist.NewWorker(dist.WorkerConfig{ID: id, Coordinator: client,
			Cores: service.BuildCore, PollInterval: fleetPoll, Trace: true, Seed: int64(i + 1)})
		if err != nil {
			return err
		}
		w.workers.Add(1)
		go func() {
			defer w.workers.Done()
			wk.Run(wctx) //nolint:errcheck // returns the cancellation that stops it
		}()
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		if len(w.srv.Dist().FleetSnapshot().Workers) == n {
			return nil
		}
		if time.Now().After(deadline) {
			return errors.New("fleet workers did not register within 10s")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (w *httpWorkload) measure(ctx context.Context, deadline time.Time, traced bool) error {
	if traced && w.fleet {
		w.scrape0 = w.scrape()
		w.calls.on.Store(true)
	}
	for ; w.next < len(w.reqs) && time.Now().Before(deadline); w.next++ {
		job, err := w.do(ctx, w.ts.URL, w.reqs[w.next], traced)
		w.r.op(job.total, err)
	}
	w.calls.stop()
	return nil
}

// jobResult is one completed job as its client saw it.
type jobResult struct {
	outcome              string // queued | coalesced | cached
	key                  string
	result               []byte
	submit, fetch, total time.Duration
}

// do submits one request, waits for its /events stream to close, fetches
// the job, and checks the result. On traced runs it also folds the job's
// server-side trace into the per-layer aggregates.
func (w *httpWorkload) do(ctx context.Context, base string, q request, traced bool) (jobResult, error) {
	var job jobResult
	var span *obs.Span
	if traced {
		span = w.r.span("client.job", nil, obs.String("kind", q.kind))
		defer span.End()
	}
	// step makes one HTTP call inside a span and returns when it ended.
	step := func(name, method, path string, body []byte, out any) (time.Time, error) {
		sp := w.r.span(name, span)
		defer sp.End()
		err := w.call(ctx, method, base+path, body, out)
		return time.Now(), err
	}
	var sub struct {
		Outcome string `json:"outcome"`
		Job     struct {
			ID  string `json:"id"`
			Key string `json:"key"`
		} `json:"job"`
	}
	var snap struct {
		State  string `json:"state"`
		Error  string `json:"error"`
		Status *struct {
			Truncated bool `json:"truncated"`
		} `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	t0 := time.Now()
	t1, err := step("submit", http.MethodPost, "/v1/jobs", q.body, &sub)
	if err != nil {
		return job, err
	}
	t2, err := step("events", http.MethodGet, "/v1/jobs/"+sub.Job.ID+"/events", nil, nil)
	if err != nil {
		return job, err
	}
	t3, err := step("fetch", http.MethodGet, "/v1/jobs/"+sub.Job.ID, nil, &snap)
	if err != nil {
		return job, err
	}
	job = jobResult{outcome: sub.Outcome, key: sub.Job.Key, result: snap.Result,
		submit: t1.Sub(t0), fetch: t3.Sub(t2), total: t3.Sub(t0)}
	switch {
	case snap.State != "done":
		return job, fmt.Errorf("%s job %s ended %s: %s", q.kind, sub.Job.ID, snap.State, snap.Error)
	case snap.Status != nil && snap.Status.Truncated: // a cache hit carries no status
		return job, fmt.Errorf("%s job %s truncated", q.kind, sub.Job.ID)
	case len(snap.Result) == 0:
		return job, fmt.Errorf("%s job %s has no result", q.kind, sub.Job.ID)
	}
	if err := w.checkEstimate(q.kind, snap.Result); err != nil {
		return job, fmt.Errorf("job %s: %w", sub.Job.ID, err)
	}
	if base == w.ts.URL {
		if err := w.record(q, job); err != nil {
			return job, err
		}
	}
	if traced {
		var tr obs.Trace
		if job.outcome == "queued" {
			if err := w.call(ctx, http.MethodGet, base+"/v1/jobs/"+sub.Job.ID+"/trace", nil, &tr); err != nil {
				return job, err
			}
			w.r.tracer.Graft(span, tr)
		}
		w.agg.add(q.kind, job, tr)
	}
	return job, nil
}

// record checks that every result of one key is byte-identical (a cache hit
// must replay its miss exactly) and keeps the first MC misses for replay.
func (w *httpWorkload) record(q request, job jobResult) error {
	if prev, ok := w.bodies[job.key]; ok {
		if !bytes.Equal(prev, job.result) {
			return fmt.Errorf("%s result for key %.12s differs from its first result (%s)", q.kind, job.key, job.outcome)
		}
	} else {
		w.bodies[job.key] = job.result
	}
	if job.outcome == "queued" && q.mc() && len(w.firstMiss) < replayedMisses {
		w.firstMiss = append(w.firstMiss, q)
		w.missBody = append(w.missBody, job.result)
	}
	return nil
}

// checkEstimate checks an MC result's estimate against its pinned band.
func (w *httpWorkload) checkEstimate(kind string, body []byte) error {
	b, ok := w.bands[kind]
	if !ok {
		return nil
	}
	var env struct {
		Result struct {
			Shots    int     `json:"shots"`
			Failures int     `json:"failures"`
			Error    float64 `json:"error"`
			Status   struct {
				Completed int `json:"completed"`
			} `json:"status"`
		} `json:"result"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return fmt.Errorf("%s result: %w", kind, err)
	}
	res := env.Result
	if kind == "readout.mc" {
		n := res.Status.Completed
		return b.contains(int(math.Round(res.Error*float64(n))), n)
	}
	return b.contains(res.Failures, res.Shots)
}

// call sends one request and decodes a 200/202 JSON answer into out (nil
// drains the body: the /events stream ends when the job finishes).
func (w *httpWorkload) call(ctx context.Context, method, url string, body []byte, out any) error {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(msg))
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return err
		}
	}
	// Reading to EOF lets the connection serve the client's next request.
	_, err = io.Copy(io.Discard, resp.Body)
	return err
}

// scrape reads the server's unlabelled Prometheus series.
func (w *httpWorkload) scrape() map[string]float64 {
	out := map[string]float64{}
	resp, err := w.client.Get(w.ts.URL + "/metrics")
	if err != nil {
		return out
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

func (w *httpWorkload) finish(ctx context.Context, traced bool) error {
	if err := w.replayStandalone(ctx); err != nil {
		return err
	}
	if w.fleet {
		q, ok := w.scrape()["qisimd_dist_quarantine_total"]
		w.r.check("no-quarantine", ok && q == 0, "qisimd_dist_quarantine_total = %g (scraped %v)", q, ok)
	}
	if !traced {
		return nil
	}
	w.agg.report(w.r, w.fleet)
	if w.fleet {
		now := w.scrape()
		w.r.put("dist.retries", "count",
			now["qisimd_dist_unit_retries_total"]-w.scrape0["qisimd_dist_unit_retries_total"], 1)
		w.r.put("dist.local_units", "count",
			now["qisimd_dist_local_units_total"]-w.scrape0["qisimd_dist_local_units_total"], 1)
		w.calls.report(w.r)
	}
	return nil
}

// replayStandalone re-runs the first MC misses on a fresh in-memory
// standalone server; every result must be byte-identical.
func (w *httpWorkload) replayStandalone(ctx context.Context) error {
	srv, err := service.New(service.Config{})
	if err != nil {
		return err
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		srv.Drain(ctx) //nolint:errcheck // the replay server holds nothing durable
	}()
	same := 0
	var errs []error
	for i, q := range w.firstMiss {
		job, err := w.do(ctx, ts.URL, q, false)
		switch {
		case err != nil:
			errs = append(errs, err)
		case !bytes.Equal(job.result, w.missBody[i]):
			errs = append(errs, fmt.Errorf("%s miss %d differs from the standalone replay", q.kind, i))
		default:
			same++
		}
	}
	w.r.check("standalone-replay", len(w.firstMiss) > 0 && len(errs) == 0,
		"%d of %d first MC misses byte-identical on a fresh standalone server %v", same, len(w.firstMiss), errors.Join(errs...))
	return nil
}

func (w *httpWorkload) close() {
	if w.closed {
		return
	}
	w.closed = true
	if w.stopWorkers != nil {
		w.stopWorkers()
		w.workers.Wait()
	}
	if w.ts != nil {
		w.ts.Close()
	}
	if w.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		w.srv.Drain(ctx) //nolint:errcheck // the data dir is removed below
		cancel()
	}
	if w.client != nil {
		w.client.CloseIdleConnections()
	}
	if w.dataDir != "" {
		os.RemoveAll(w.dataDir)
	}
}

// layerAgg folds the traced phase's jobs into the per-layer metrics.
type layerAgg struct {
	submit, fetch, hitLat    []float64 // ms
	submits, hits            int
	total, unattributed      float64 // ms over all jobs
	queueWait, execSelf      []float64
	traced, mcTraced         int
	journal, save, load      float64 // ms totals
	shard, merge             float64
	savesByKind, unitsByKind map[string][]float64
}

// add folds one job. tr is the server's trace of a miss (empty for hits).
func (a *layerAgg) add(kind string, job jobResult, tr obs.Trace) {
	a.submits++
	a.submit = append(a.submit, ms(job.submit))
	a.fetch = append(a.fetch, ms(job.fetch))
	a.total += ms(job.total)
	if len(tr.Spans) == 0 {
		// A cache hit or coalesced submission: the whole wait is the
		// result cache's.
		a.hits++
		a.hitLat = append(a.hitLat, ms(job.total))
		return
	}
	if a.savesByKind == nil {
		a.savesByKind, a.unitsByKind = map[string][]float64{}, map[string][]float64{}
	}
	self := selfTimes(tr.Spans)
	var covered float64
	var saves, units int
	for _, sp := range tr.Spans {
		dur := float64(sp.DurNS()) / 1e6
		selfMS := float64(self[sp.ID]) / 1e6
		switch sp.Name {
		case "job":
			if sp.Parent == 0 {
				covered = dur - selfMS
			}
		case "queue.wait":
			a.queueWait = append(a.queueWait, dur)
		case "executor":
			a.execSelf = append(a.execSelf, selfMS)
		case "journal.append":
			a.journal += dur
		case "checkpoint.save":
			a.save += dur
			saves++
		case "checkpoint.load":
			a.load += dur
		case "shard":
			a.shard += dur
		case "merge":
			a.merge += selfMS
		case "mc.window":
			units++
		}
	}
	a.traced++
	if strings.HasSuffix(kind, ".mc") {
		a.mcTraced++
		a.savesByKind[kind] = append(a.savesByKind[kind], float64(saves))
		a.unitsByKind[kind] = append(a.unitsByKind[kind], float64(units))
	}
	a.unattributed += max(0, ms(job.total)-ms(job.submit)-ms(job.fetch)-covered)
}

// perKind is the mean over job kinds of each kind's median: a per-job count
// that does not depend on how many jobs of each kind the run completed.
func perKind(byKind map[string][]float64) (float64, int) {
	var sum float64
	n := 0
	for _, xs := range byKind {
		sum += median(xs)
		n += len(xs)
	}
	if len(byKind) == 0 {
		return 0, 0
	}
	return sum / float64(len(byKind)), n
}

func (a *layerAgg) report(r *run, fleet bool) {
	per := func(total float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return total / float64(n)
	}
	r.put("service.submit_ms_p50", "ms", median(a.submit), len(a.submit))
	r.put("service.fetch_ms_p50", "ms", median(a.fetch), len(a.fetch))
	r.put("service.unattributed_share", "ratio", a.unattributed/max(a.total, 1e-9), a.submits)
	r.put("jobs.queue_wait_ms_p50", "ms", median(a.queueWait), len(a.queueWait))
	r.put("jobs.executor_self_ms_p50", "ms", median(a.execSelf), len(a.execSelf))
	r.put("jobs.journal_append_ms_per_job", "ms", per(a.journal, a.traced), a.traced)
	r.put("simrun.shard_ms_per_job", "ms", per(a.shard, a.mcTraced), a.mcTraced)
	r.put("simrun.merge_ms_per_job", "ms", per(a.merge, a.mcTraced), a.mcTraced)
	if !fleet {
		saves, n := perKind(a.savesByKind)
		r.put("checkpoint.saves_per_job", "count", saves, n)
		r.put("checkpoint.save_ms_per_job", "ms", per(a.save, a.mcTraced), a.mcTraced)
		r.put("checkpoint.load_ms_per_job", "ms", per(a.load, a.mcTraced), a.mcTraced)
		r.put("rescache.hit_ratio", "ratio", per(float64(a.hits), a.submits), a.submits)
		r.put("rescache.hit_ms_p50", "ms", median(a.hitLat), len(a.hitLat))
	} else {
		units, n := perKind(a.unitsByKind)
		r.put("dist.units_per_job", "count", units, n)
	}
}

// callRecorder keeps the fleet workers' coordinator RPCs of the traced
// phase.
type callRecorder struct {
	on    atomic.Bool
	mu    sync.Mutex
	calls []rpc
}

type rpc struct {
	worker, path string
	status       int
	start, end   time.Time
}

func (c *callRecorder) stop() {
	if c != nil {
		c.on.Store(false)
	}
}

// timingTransport times each RPC of one fleet worker, from sending the
// request to receiving the response headers.
type timingTransport struct {
	base   http.RoundTripper
	worker string
	rec    *callRecorder
}

func (t *timingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.base.RoundTrip(req)
	}
	start := time.Now()
	resp, err := t.base.RoundTrip(req)
	c := rpc{worker: t.worker, path: req.URL.Path, start: start, end: time.Now()}
	if err == nil {
		c.status = resp.StatusCode
	}
	t.rec.mu.Lock()
	t.rec.calls = append(t.rec.calls, c)
	t.rec.mu.Unlock()
	return resp, err
}

// report derives the dist per-layer metrics: RPC latencies, the share of
// claims that found no work, and per unit the time from the grant arriving
// to the report being sent (execution) and to the report being accepted
// (the lease as the worker holds it).
func (c *callRecorder) report(r *run) {
	c.mu.Lock()
	defer c.mu.Unlock()
	rtt := map[string][]float64{}
	empty := 0
	var exec, lease []float64
	grantAt := map[string]time.Time{}
	sent := map[string]bool{}
	for _, call := range c.calls {
		rtt[call.path] = append(rtt[call.path], ms(call.end.Sub(call.start)))
		switch call.path {
		case "/v1/dist/claim":
			if call.status == http.StatusNoContent {
				empty++
			} else if call.status == http.StatusOK {
				grantAt[call.worker] = call.end
				sent[call.worker] = false
			}
		case "/v1/dist/report":
			g, ok := grantAt[call.worker]
			if !ok {
				continue
			}
			if !sent[call.worker] {
				exec = append(exec, ms(call.start.Sub(g)))
				sent[call.worker] = true
			}
			if call.status/100 == 2 {
				lease = append(lease, ms(call.end.Sub(g)))
				delete(grantAt, call.worker)
			}
		}
	}
	claims := rtt["/v1/dist/claim"]
	r.put("dist.claim_ms_p50", "ms", median(claims), len(claims))
	r.put("dist.report_ms_p50", "ms", median(rtt["/v1/dist/report"]), len(rtt["/v1/dist/report"]))
	r.put("dist.renew_ms_p50", "ms", median(rtt["/v1/dist/renew"]), len(rtt["/v1/dist/renew"]))
	r.put("dist.empty_claim_ratio", "ratio", float64(empty)/float64(max(len(claims), 1)), len(claims))
	r.put("dist.unit_exec_ms_p50", "ms", median(exec), len(exec))
	r.put("dist.lease_ms_p50", "ms", median(lease), len(lease))
}
