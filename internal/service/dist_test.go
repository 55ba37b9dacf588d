package service

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/dist"
	"qisim/internal/jobs"
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

// startFleet registers and runs n HTTP workers against a coordinator server.
// Registration happens synchronously before return, so a job submitted
// afterwards sees a live fleet (no degraded fallback racing the test).
func startFleet(t *testing.T, ts *httptest.Server, n int) []*dist.Worker {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	workers := make([]*dist.Worker, n)
	for i := 0; i < n; i++ {
		client := &dist.Client{Base: ts.URL}
		id := fmt.Sprintf("fleet-w%d", i)
		if err := client.Register(ctx, dist.WorkerInfo{ID: id}); err != nil {
			cancel()
			t.Fatalf("pre-register %s: %v", id, err)
		}
		w, err := dist.NewWorker(dist.WorkerConfig{
			ID: id, Coordinator: client, Cores: BuildCore,
			PollInterval: 2 * time.Millisecond, Seed: int64(i + 1), Trace: true,
		})
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

// TestFleetE2EMatchesStandalone is the service-level determinism pin: the
// same submission produces byte-identical result bodies from a standalone
// server and from a coordinator dispatching over real HTTP workers — and the
// fleet genuinely did the work (units were claimed, executed and reported
// remotely, not absorbed by the degraded local lane).
func TestFleetE2EMatchesStandalone(t *testing.T) {
	job := `{"kind":"surface.mc","params":{"distance":3,"shots":2000,"shard_size":128,"seed":11}}`

	_, solo := newTestServer(t, Config{Workers: 2})
	want := runToBytes(t, solo, job)

	coord, ts := newTestServer(t, Config{Workers: 2, Dist: DistConfig{
		Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 4,
	}})
	workers := startFleet(t, ts, 2)
	got := runToBytes(t, ts, job)

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

// TestProbeSeesDrainingWorker: the coordinator's health probe reads a
// worker-side qisimd's /readyz — "ready" while serving, "draining" once the
// worker begins shutdown. Draining is a distinct state from dead: the
// coordinator stops extending its leases but does not evict it.
func TestProbeSeesDrainingWorker(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	probe := dist.ProbeHTTP(nil, 0)

	status, err := probe(context.Background(), ts.URL)
	if err != nil || status != "ready" {
		t.Fatalf("probe healthy: %q, %v; want \"ready\"", status, err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	status, err = probe(context.Background(), ts.URL)
	if err != nil || status != "draining" {
		t.Fatalf("probe draining: %q, %v; want \"draining\"", status, err)
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
