package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qisim/internal/backoff"
	"qisim/internal/checkpoint"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/simrun"
)

// runToBytes submits one job and returns its final result body.
func runToBytes(t *testing.T, ts *httptest.Server, body string) []byte {
	t.Helper()
	code, sr := postJob(t, ts, body)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s: %s)", snap.State, snap.ErrorClass, snap.Error)
	}
	return []byte(snap.Result)
}

// startFleet runs n HTTP workers against a coordinator server with no job
// pending. Each worker's first claim, answered at once before return,
// admits it, so a job submitted afterwards sees a live fleet (no degraded
// fallback racing the test). configure, when given, adjusts worker i's
// config before it is built.
func startFleet(t *testing.T, ts *httptest.Server, n int, configure ...func(i int, cfg *dist.WorkerConfig)) []*dist.Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := make([]*dist.Worker, n)
	for i := 0; i < n; i++ {
		client := &dist.Client{Base: ts.URL}
		id := fmt.Sprintf("fleet-w%d", i)
		if g, err := client.Claim(ctx, id, "", 0); err != nil || g != nil {
			cancel()
			t.Fatalf("first claim of %s: %+v, %v; want no work", id, g, err)
		}
		cfg := dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1), Trace: true,
		}
		for _, f := range configure {
			f(i, &cfg)
		}
		w, err := dist.NewWorker(cfg)
		if err != nil {
			cancel()
			t.Fatalf("NewWorker: %v", err)
		}
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.Run(ctx) //nolint:errcheck // ends by cancellation
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
	})
	return workers
}

// admitWorkers admits each worker with an empty claim, as its first claim
// would; it fails the test if a job was pending and the claim took work.
func admitWorkers(t *testing.T, c *dist.Coordinator, ids ...string) {
	t.Helper()
	for _, id := range ids {
		if g, err := c.Claim(context.Background(), id, "", 0); err != nil || g != nil {
			t.Fatalf("admitting %s: %+v, %v; want no work", id, g, err)
		}
	}
}

// TestFleetE2EMatchesStandalone is the service-level determinism pin: the
// same submission produces byte-identical result bodies from a standalone
// server and from a coordinator dispatching over real HTTP workers — and the
// fleet genuinely did the work (units were claimed, executed and reported
// remotely, not absorbed by the degraded local lane). Each MC kind runs a
// 40-shard job in units of one shard, of the default size and of one unit
// covering the whole job: unit boundaries never move a result byte.
func TestFleetE2EMatchesStandalone(t *testing.T) {
	for _, job := range []struct{ kind, params string }{
		{"surface.mc", `{"distance":3,"shots":2560,"shard_size":64,"seed":11}`},
		{"readout.mc", `{"shots":5120,"shard_size":128,"seed":3}`},
	} {
		body := fmt.Sprintf(`{"kind":%q,"params":%s}`, job.kind, job.params)
		_, solo := newTestServer(t, Config{Workers: 2})
		want := runToBytes(t, solo, body)
		for _, unitShards := range []int{1, 0, 64} {
			t.Run(fmt.Sprintf("%s/unit-shards-%d", job.kind, unitShards), func(t *testing.T) {
				coord, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
					Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: unitShards,
				}})
				workers := startFleet(t, ts, 2)
				got := runToBytes(t, ts, body)

				if !bytes.Equal(want, got) {
					t.Fatalf("fleet result differs from standalone:\n%s\n%s", clip(want), clip(got))
				}
				st := coord.Dist().Stats()
				if st.UnitsDone == 0 || st.Grants == 0 {
					t.Fatalf("fleet stats %+v — coordinator never dispatched remotely", st)
				}
				var execs int64
				for _, w := range workers {
					execs += w.Stats().Executions
				}
				if execs == 0 {
					t.Fatal("no worker executed a unit — result came from the local lane")
				}
				if n := scrapeMetric(t, ts, "qisimd_degraded_runs_total"); n != 0 {
					t.Fatalf("degraded_runs_total = %v with a live fleet, want 0", n)
				}
				if n := scrapeMetric(t, ts, `qisimd_dist_leases_total{event="granted"}`); n < 1 {
					t.Fatalf("leases_total{granted} = %v, want >= 1", n)
				}
			})
		}
	}
}

// TestHeldClaimStartsJobAtOnce: an idle worker's empty claim waits at the
// coordinator, so a job submitted while the worker is idle gets its first
// grant at once, not after the worker's 2 s poll interval (a worker that
// slept between polls would wait at least 1 s).
func TestHeldClaimStartsJobAtOnce(t *testing.T) {
	coord, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: 10 * time.Second}})
	startFleet(t, ts, 1, func(_ int, cfg *dist.WorkerConfig) { cfg.PollInterval = 2 * time.Second })
	time.Sleep(100 * time.Millisecond) // the worker's first claim found no work
	t0 := time.Now()
	code, sr := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":4}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	for coord.Dist().Stats().Grants == 0 {
		if time.Since(t0) > 10*time.Second {
			t.Fatal("the job was never granted")
		}
		time.Sleep(time.Millisecond)
	}
	if d := time.Since(t0); d > 200*time.Millisecond {
		t.Fatalf("first grant %v after submission, want within 200ms", d)
	}
	if snap := waitDone(t, ts, sr.Job.ID); snap.State != jobs.StateDone {
		t.Fatalf("job finished %s", snap.State)
	}
}

// TestDistDegradedFallsBackToLocal: a coordinator with zero registered
// workers still answers every submission — the run degrades to the
// in-process path, the result is byte-identical to a standalone server's,
// and qisimd_degraded_runs_total counts the fallback.
func TestDistDegradedFallsBackToLocal(t *testing.T) {
	job := `{"kind":"readout.mc","params":{"shots":2000,"shard_size":256,"seed":3}}`

	_, solo := newTestServer(t, Config{Workers: 2})
	want := runToBytes(t, solo, job)

	_, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: time.Second,
	}})
	got := runToBytes(t, ts, job)

	if !bytes.Equal(want, got) {
		t.Fatalf("degraded result differs from standalone:\n%s\n%s", clip(want), clip(got))
	}
	if n := scrapeMetric(t, ts, "qisimd_degraded_runs_total"); n < 1 {
		t.Fatalf("qisimd_degraded_runs_total = %v, want >= 1", n)
	}
}

// TestWorkerJoinsOnceCoordinatorAnswers: a worker whose coordinator fails
// every RPC for longer than the client's retry budget keeps claiming, and
// its first answered claim admits it: the next job runs on it, not on the
// degraded local lane.
func TestWorkerJoinsOnceCoordinatorAnswers(t *testing.T) {
	coord, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second}})
	var up atomic.Bool
	var refused atomic.Int64
	front := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !up.Load() {
			refused.Add(1)
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		coord.Handler().ServeHTTP(w, r)
	}))
	defer front.Close()
	fast := backoff.Policy{Base: time.Millisecond, Cap: 2 * time.Millisecond, Factor: 2}
	w, err := dist.NewWorker(dist.WorkerConfig{ID: "early", Coordinator: &dist.Client{Base: front.URL, Backoff: fast},
		Cores: BuildCore, PollInterval: 2 * time.Millisecond, Seed: 1, Backoff: fast})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := make(chan error, 1)
	go func() { ran <- w.Run(ctx) }()

	// Five claims' worth of 4-attempt retry budgets fail.
	for deadline := time.Now().Add(10 * time.Second); refused.Load() < 20; time.Sleep(time.Millisecond) {
		select {
		case err := <-ran:
			t.Fatalf("worker gave up while its coordinator was down: %v", err)
		default:
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d refused RPCs in 10s", refused.Load())
		}
	}
	up.Store(true)
	for deadline := time.Now().Add(10 * time.Second); len(coord.Dist().FleetSnapshot().Workers) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the worker never joined once its coordinator answered")
		}
	}
	runToBytes(t, ts, `{"kind":"readout.mc","params":{"shots":2000,"shard_size":256,"seed":3}}`)
	if n := w.Stats().Executions; n == 0 {
		t.Fatal("the worker executed no unit")
	}
	if n := scrapeMetric(t, ts, "qisimd_degraded_runs_total"); n != 0 {
		t.Fatalf("qisimd_degraded_runs_total = %v, want 0", n)
	}
	cancel()
	if err := <-ran; !errors.Is(err, context.Canceled) {
		t.Fatalf("Run returned %v, want context.Canceled", err)
	}
}

// TestQueueFull429CarriesRetryAfter: satellite contract for well-behaved
// clients — a queue-full rejection tells them when to come back, and the
// shared backoff helper honors exactly this header.
func TestQueueFull429CarriesRetryAfter(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := func(seed int) string {
		return fmt.Sprintf(`{"kind":"surface.mc","params":{"distance":9,"shots":2000000,"shard_size":64,"seed":%d}}`, seed)
	}
	postJob(t, ts, slow(201))
	postJob(t, ts, slow(202))
	for seed := 203; seed < 220; seed++ {
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow(seed)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body) //nolint:errcheck
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			if ra := resp.Header.Get("Retry-After"); ra == "" {
				t.Fatal("429 response missing Retry-After header")
			}
			return
		}
	}
	t.Fatal("queue never refused; cannot observe Retry-After")
}

// TestSubmitTimeoutTruncates: a per-request timeout_ms deadline truncates
// the run at the last committed shard — state DONE with a flagged partial,
// exactly like a drain, never a failure.
func TestSubmitTimeoutTruncates(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	long := `{"kind":"surface.mc","params":{"distance":9,"shots":4000000,"shard_size":64,"seed":13},"timeout_ms":150}`
	code, sr := postJob(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("timed-out job state %s (%s: %s), want done", snap.State, snap.ErrorClass, snap.Error)
	}
	if snap.Status == nil || !snap.Status.Truncated {
		t.Fatalf("status %+v, want Truncated", snap.Status)
	}
	if snap.Status.Completed >= snap.Status.Requested {
		t.Fatal("deadline did not actually truncate the run")
	}
}

// TestFleetJobResultsStayCached: a completed fleet job leaves only its own
// result in the shared cache, never its units, so with the default 256
// entries every one of 40 resubmitted 8-unit jobs, newest first, is
// answered from it.
func TestFleetJobResultsStayCached(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 1,
	}})
	startFleet(t, ts, 2)
	job := func(seed int) string {
		return fmt.Sprintf(`{"kind":"surface.mc","params":{"distance":3,"shots":128,"shard_size":16,"seed":%d}}`, seed)
	}
	for seed := 1; seed <= 40; seed++ {
		runToBytes(t, ts, job(seed))
	}
	cached := 0
	for seed := 40; seed >= 1; seed-- {
		code, sr := postJob(t, ts, job(seed))
		switch {
		case sr.Outcome == "cached":
			cached++
		case code == http.StatusAccepted:
			waitDone(t, ts, sr.Job.ID)
		default:
			t.Fatalf("resubmission %d: status %d", seed, code)
		}
	}
	if cached != 40 {
		t.Fatalf("%d of 40 resubmissions answered from the cache, want 40", cached)
	}
}

// TestDistMetricsReadStats drives the server's coordinator through every
// lease, liveness and spot-check event and requires each qisimd_dist_*
// counter on /metrics, and the stats of /v1/fleet/status, to equal the
// coordinator's own Stats. The coordinator's background loops are never
// started: leases expire only on the explicit Sweep, and the hedge,
// liveness and quarantine windows (2×, 2× and 4× a 50 ms TTL) are waited
// out.
func TestDistMetricsReadStats(t *testing.T) {
	const ttl = 50 * time.Millisecond
	raw := json.RawMessage(`{"distance":3,"shots":128,"shard_size":16,"seed":5}`)
	mc, err := parseSurfaceMC(raw)
	if err != nil {
		t.Fatal(err)
	}
	core, err := mc.newCore(simrun.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	kind, key := string(mc.kind), string(mc.key)

	srv, err := New(Config{Dist: DistConfig{
		Enabled: true, LeaseTTL: ttl, UnitShards: 1, SpotCheck: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		srv.Drain(context.Background()) //nolint:errcheck
	})
	ctx := context.Background()
	c := srv.Dist()
	claim := func(worker string) *dist.LeaseGrant {
		t.Helper()
		g, err := c.Claim(ctx, worker, "", 0)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	report := func(worker string, g *dist.LeaseGrant, forge bool) {
		t.Helper()
		states, events, err := core.RunWindow(ctx, g.Plan, g.Start, g.End)
		if err != nil {
			t.Fatal(err)
		}
		if forge {
			for i := range states {
				states[i] = json.RawMessage(strconv.Itoa(1000 + i))
			}
		}
		body, err := dist.EncodeUnitResult(dist.UnitResult{Kind: g.Kind, Key: g.Key,
			Start: g.Start, End: g.End, States: states, Events: events, Worker: worker})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Report(ctx, worker, body); err != nil {
			t.Fatal(err)
		}
	}
	admitWorkers(t, c, "w-a", "liar")

	done := make(chan error, 1)
	go func() {
		_, _, err := c.Execute(ctx, kind, key, raw, core, mc.plan)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); len(c.FleetSnapshot().Jobs) == 0; {
		if time.Now().After(deadline) {
			t.Fatal("job never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	// A grant, a renewal and an audited honest report (spot-check pass).
	g := claim("w-a")
	if g == nil {
		t.Fatal("no grant")
	}
	if err := c.Renew(ctx, "w-a", g.Key, g.Start, g.End); err != nil {
		t.Fatal(err)
	}
	report("w-a", g, false)
	// w-a holds units 1–7; once they are 2×TTL old the liar is hedged onto
	// unit 1, forges it and is quarantined.
	for i := 0; i < 7; i++ {
		if claim("w-a") == nil {
			t.Fatalf("claim %d: no grant", i)
		}
	}
	time.Sleep(2*ttl + 5*time.Millisecond)
	hedge := claim("liar")
	if hedge == nil {
		t.Fatal("no hedged grant")
	}
	report("liar", hedge, true)
	// After 4×TTL the liar is re-admitted by its next claim, which hedges
	// another of w-a's units, and reports it honestly.
	time.Sleep(4*ttl + 5*time.Millisecond)
	if g := claim("liar"); g != nil {
		report("liar", g, false)
	}
	// Neither worker is heard from for 2×TTL: the sweep expires w-a's
	// leases, and its broadcast hands their units to the local lane, which
	// finishes the job.
	time.Sleep(2*ttl + 5*time.Millisecond)
	c.Sweep(time.Now())
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	for name, n := range map[string]int{"Grants": st.Grants, "Renewals": st.Renewals, "Expired": st.Expired,
		"UnitRetries": st.UnitRetries, "Steals": st.Steals, "LocalUnits": st.LocalUnits,
		"SpotChecksPassed": st.SpotChecksPassed, "SpotChecksFailed": st.SpotChecksFailed,
		"Quarantines": st.Quarantines, "QuarantineReadmits": st.QuarantineReadmits} {
		if n == 0 {
			t.Errorf("%s = 0: event not driven (%+v)", name, st)
		}
	}
	want := map[string]int{
		`qisimd_dist_leases_total{event="granted"}`:   st.Grants,
		`qisimd_dist_leases_total{event="renewed"}`:   st.Renewals,
		`qisimd_dist_leases_total{event="expired"}`:   st.Expired,
		`qisimd_dist_spotcheck_total{result="pass"}`:  st.SpotChecksPassed,
		`qisimd_dist_spotcheck_total{result="fail"}`:  st.SpotChecksFailed,
		`qisimd_dist_spotcheck_total{result="error"}`: st.SpotCheckErrors,
		"qisimd_dist_unit_retries_total":              st.UnitRetries,
		"qisimd_dist_steals_total":                    st.Steals,
		"qisimd_dist_local_units_total":               st.LocalUnits,
		"qisimd_dist_quarantine_total":                st.Quarantines,
		"qisimd_dist_units_done_total":                st.UnitsDone,
		"qisimd_dist_dup_reports_total":               st.DupReports,
		"qisimd_dist_idem_replays_total":              st.IdemReplays,
		"qisimd_dist_quarantine_readmits_total":       st.QuarantineReadmits,
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	got := map[string]string{}
	for _, line := range strings.Split(string(body), "\n") {
		if series, value, ok := strings.Cut(line, " "); ok && strings.HasPrefix(series, "qisimd_dist_") {
			got[series] = value
		}
	}
	for series, n := range want {
		if got[series] != strconv.Itoa(n) {
			t.Errorf("%s = %q, want %d", series, got[series], n)
		}
	}
	// Each count is exported once: done units only as units_done_total.
	if v, ok := got[`qisimd_dist_leases_total{event="done"}`]; ok {
		t.Errorf(`qisimd_dist_leases_total{event="done"} = %s duplicates qisimd_dist_units_done_total`, v)
	}

	var status struct{ Stats dist.Stats }
	resp, err = http.Get(ts.URL + "/v1/fleet/status")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&status)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if status.Stats != st {
		t.Fatalf("/v1/fleet/status stats %+v, want %+v", status.Stats, st)
	}
}

// TestDistBodiesWithTrailingBytes: a claim or renew body with bytes after
// its JSON object is refused with 400, as a job submission is, and does not
// admit its worker.
func TestDistBodiesWithTrailingBytes(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second}})
	for _, c := range []struct{ path, body string }{
		{"/v1/dist/claim", `{"worker":"w1"} garbage`},
		{"/v1/dist/claim", `{"worker":"w1"}{"worker":"w2"}`},
		{"/v1/dist/renew", `{"worker":"w1","key":"k","start":0,"end":4} garbage`},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s %s: %d, want 400", c.path, c.body, resp.StatusCode)
		}
	}
	if st := srv.Dist().FleetSnapshot(); len(st.Workers) != 0 {
		t.Errorf("refused bodies admitted workers: %+v", st.Workers)
	}
}

// TestDistBodiesFromOlderWorkers: a renew or report body that still
// carries the metrics summary older workers sent is accepted (the field is
// ignored), and a renew body over 64 KiB is refused, as a claim body is.
func TestDistBodiesFromOlderWorkers(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second}})
	post := func(path string, body []byte) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-QIsim-Worker", "w-old")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	const summary = `"metrics":{"counters":{"qisimd_worker_units_total":3},` +
		`"histograms":{"qisimd_worker_unit_seconds":{"bounds":[1],"buckets":[1],"sum":0.5,"count":1}}}`
	// No such lease: 410 Gone, not 400 for the body.
	if code := post("/v1/dist/renew", []byte(`{"worker":"w-old","key":"k","start":0,"end":4,`+summary+`}`)); code != http.StatusGone {
		t.Fatalf("renew with a summary: %d, want 410", code)
	}
	big := `{"worker":"w-old","key":"k","start":0,"end":4,"pad":"` + strings.Repeat("x", 1<<16) + `"}`
	if code := post("/v1/dist/renew", []byte(big)); code != http.StatusBadRequest {
		t.Fatalf("renew over 64 KiB: %d, want 400", code)
	}

	enc, err := dist.EncodeUnitResult(dist.UnitResult{Kind: "surface.mc", Key: "k-none", End: 1,
		States: []json.RawMessage{[]byte(`1`)}, Events: []int{0}, Worker: "w-old"})
	if err != nil {
		t.Fatal(err)
	}
	payload, err := checkpoint.DecodeContainer(enc)
	if err != nil {
		t.Fatal(err)
	}
	old := checkpoint.EncodeContainer(append([]byte(`{`+summary+`,`), payload[1:]...))
	if code := post("/v1/dist/report", old); code != http.StatusNoContent {
		t.Fatalf("report with a summary: %d, want 204", code)
	}
}
