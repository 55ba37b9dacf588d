package service

import (
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"qisim/internal/jobs"
)

// waitForGoroutines is the no-leak check shared with the internal/simrun and
// internal/jobs suites: the goroutine count must return to the pre-run
// baseline within a grace period.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= baseline {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: %d running, baseline %d", runtime.NumGoroutine(), baseline)
}

// TestDrainTruncatesInFlight is the graceful-shutdown contract end to end:
// a long-running job caught by a drain finishes DONE with a Truncated
// partial result (served as JSON through the job snapshot), new submissions
// are refused with 503, the partial never reaches the cache, and no worker
// goroutines leak.
func TestDrainTruncatesInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()

	srv, err := New(Config{Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// A job long enough to still be running when the drain lands: the
	// sharded engine commits 64-shot shards, so a truncated run still
	// carries the contiguous prefix it paid for.
	long := `{"kind":"surface.mc","params":{"distance":9,"shots":4000000,"shard_size":64,"seed":7}}`
	code, sr := postJob(t, ts, long)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}

	// Wait for the worker to pick it up.
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, ok := srv.mgr.Get(sr.Job.ID)
		if ok && snap.State == jobs.StateRunning {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never started (state %s)", snap.State)
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	// The in-flight job surfaced as a Truncated partial, not a failure.
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("drained job state %s (%s: %s)", snap.State, snap.ErrorClass, snap.Error)
	}
	if snap.Status == nil || !snap.Status.Truncated {
		t.Fatalf("drained job status %+v, want Truncated", snap.Status)
	}
	if snap.Status.Completed >= snap.Status.Requested {
		t.Fatalf("drained job completed %d/%d — did not actually truncate",
			snap.Status.Completed, snap.Status.Requested)
	}
	if len(snap.Result) == 0 {
		t.Fatal("truncated job lost its partial result body")
	}
	if !strings.Contains(string(snap.Result), `"truncated":true`) {
		t.Fatalf("partial result JSON not flagged truncated: %s", clip(snap.Result))
	}

	// Truncated partials must never enter the content-addressed cache.
	if srv.cache.Contains(sr.Job.Key) {
		t.Fatal("truncated partial was cached")
	}

	// Draining service refuses new work with 503 and reports unhealthy.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(smallMC))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: status %d, want 503", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain healthz: status %d, want 503", code)
	}
	if n := scrapeMetric(t, ts, `qisimd_jobs_truncated_total{kind="surface.mc"}`); n != 1 {
		t.Fatalf("truncated metric = %v, want 1", n)
	}

	// Idle HTTP keep-alives aside, the worker pool must be fully gone.
	ts.Close()
	http.DefaultClient.CloseIdleConnections()
	waitForGoroutines(t, baseline)
}

// TestDrainIsIdempotentAndBounded: double-drain is safe, and a drain with an
// already-expired context still returns (with the interrupted class) rather
// than hanging.
func TestDrainIsIdempotent(t *testing.T) {
	srv, err := New(Config{Workers: 2})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ctx := context.Background()
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("first drain: %v", err)
	}
	if err := srv.Drain(ctx); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if !srv.mgr.Draining() {
		t.Fatal("manager not marked draining")
	}
}

func clip(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(b)
}
