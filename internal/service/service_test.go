package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/jobs"
)

// newTestServer spins up the full HTTP stack around a Server; the cleanup
// drains the pool so no worker goroutines outlive the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("cleanup drain: %v", err)
		}
	})
	return srv, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatalf("decode submit response: %v", err)
	}
	return resp.StatusCode, sr
}

func getJSON(t *testing.T, url string, dst any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if dst != nil {
		if err := json.NewDecoder(resp.Body).Decode(dst); err != nil {
			t.Fatalf("decode GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// waitDone polls GET /v1/jobs/{id} until the job leaves the queue.
func waitDone(t *testing.T, ts *httptest.Server, id string) jobs.Snapshot {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		var snap jobs.Snapshot
		if code := getJSON(t, ts.URL+"/v1/jobs/"+id, &snap); code != http.StatusOK {
			t.Fatalf("GET job %s: status %d", id, code)
		}
		if snap.State == jobs.StateDone || snap.State == jobs.StateFailed {
			return snap
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
	return jobs.Snapshot{}
}

// scrapeMetric reads one series (exact name{labels} prefix) from /metrics.
func scrapeMetric(t *testing.T, ts *httptest.Server, series string) float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, series+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			return v
		}
	}
	return 0
}

const smallMC = `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":5}}`

// TestSubmitPollFetchE2E walks the whole contract: submit → 202 queued →
// poll to done → result envelope → byte-identical replay from
// /v1/results/{key} and from a cached resubmission (with the cache-hit
// metric incrementing).
func TestSubmitPollFetchE2E(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})

	code, sr := postJob(t, ts, smallMC)
	if code != http.StatusAccepted || sr.Outcome != "queued" {
		t.Fatalf("submit: status %d outcome %q, want 202 queued", code, sr.Outcome)
	}
	if sr.Job.Kind != jobs.KindSurfaceMC || !sr.Job.Key.Valid() {
		t.Fatalf("submit snapshot malformed: %+v", sr.Job)
	}

	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s: %s)", snap.State, snap.ErrorClass, snap.Error)
	}
	if snap.Status == nil || snap.Status.Truncated {
		t.Fatalf("unexpected status %+v", snap.Status)
	}
	if snap.Progress.Completed != 256 || snap.Progress.Requested != 256 {
		t.Fatalf("progress %+v, want 256/256", snap.Progress)
	}
	if len(snap.Result) == 0 {
		t.Fatal("done job has no result")
	}
	var env struct {
		Kind   string          `json:"kind"`
		Key    string          `json:"key"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(snap.Result, &env); err != nil {
		t.Fatalf("result envelope: %v", err)
	}
	if env.Kind != "surface.mc" || env.Key != string(sr.Job.Key) || len(env.Result) == 0 {
		t.Fatalf("envelope mismatch: %+v", env)
	}

	// The cached body replays byte-exactly from /v1/results/{key}.
	resp, err := http.Get(ts.URL + "/v1/results/" + string(sr.Job.Key))
	if err != nil {
		t.Fatal(err)
	}
	stored, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET result: status %d", resp.StatusCode)
	}
	if !bytes.Equal(stored, []byte(snap.Result)) {
		t.Fatalf("stored body differs from job result:\n%s\n%s", stored, snap.Result)
	}

	// Resubmission (different field order) is a cache hit with the same bytes.
	hitsBefore := scrapeMetric(t, ts, "qisimd_cache_hits_total")
	code, sr2 := postJob(t, ts,
		`{"kind":"surface.mc","params":{"seed":5,"shard_size":64,"shots":256,"distance":3}}`)
	if code != http.StatusOK || sr2.Outcome != "cached" {
		t.Fatalf("resubmit: status %d outcome %q, want 200 cached", code, sr2.Outcome)
	}
	if !sr2.Job.Cached || !bytes.Equal(sr2.Job.Result, snap.Result) {
		t.Fatal("cached resubmission did not return the byte-identical body")
	}
	if hits := scrapeMetric(t, ts, "qisimd_cache_hits_total"); hits != hitsBefore+1 {
		t.Fatalf("qisimd_cache_hits_total = %v, want %v", hits, hitsBefore+1)
	}
}

// TestConcurrentDuplicatesCoalesce: N identical submissions racing through
// the HTTP layer must produce exactly ONE computation — the rest coalesce
// onto the in-flight job or hit the cache.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	const dupes = 16
	var wg sync.WaitGroup
	ids := make([]string, dupes)
	outcomes := make([]string, dupes)
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, sr := postJob(t, ts, smallMC)
			if code != http.StatusAccepted && code != http.StatusOK {
				t.Errorf("dupe %d: status %d", i, code)
				return
			}
			ids[i], outcomes[i] = sr.Job.ID, sr.Outcome
		}(i)
	}
	wg.Wait()

	// Everyone attached to a job; wait for all referenced jobs to settle.
	for _, id := range ids {
		if id != "" {
			waitDone(t, ts, id)
		}
	}
	queued := 0
	for _, o := range outcomes {
		if o == "queued" {
			queued++
		}
	}
	if queued != 1 {
		t.Fatalf("%d computations enqueued for %d duplicates, want exactly 1 (outcomes %v)",
			queued, dupes, outcomes)
	}
	if n := scrapeMetric(t, ts, `qisimd_jobs_finished_total{kind="surface.mc",state="done"}`); n != 1 {
		t.Fatalf("finished{done} = %v, want 1 execution", n)
	}
	if srv.cache.Len() != 1 {
		t.Fatalf("cache has %d entries, want 1", srv.cache.Len())
	}
}

// TestErrorStatusMapping: typed configuration errors map to the documented
// HTTP statuses, mirroring the CLI exit-code contract.
func TestErrorStatusMapping(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})

	cases := []struct {
		name, body string
		status     int
		class      string
	}{
		{"unknown kind", `{"kind":"bogus","params":{}}`, 400, "invalid-config"},
		{"typo'd param", `{"kind":"surface.mc","params":{"distanec":3}}`, 400, "invalid-config"},
		{"bad body", `{"kind":`, 400, "invalid-config"},
		{"bytes after the object", `{"kind":"surface.mc","params":{"distance":3,"shots":100,"seed":5}}garbage`, 400, "invalid-config"},
		{"a second object after the first", `{"kind":"surface.mc","params":{"distance":3,"shots":100,"seed":5}} {"kind":"nonsense"} garbage`, 400, "invalid-config"},
		{"trailing newline", "{\"kind\":\"surface.mc\",\"params\":{\"distance\":3,\"shots\":100,\"seed\":5}}\n", 202, ""},
		{"unsupported qasm", `{"kind":"pauli.mc","params":{"qasm":"OPENQASM 2.0; qreg q[1]; h q[0]; ccx q[0],q[0],q[0];"}}`, 501, "unsupported-qasm"},
	}
	rejected := 0
	for _, c := range cases {
		if c.status != http.StatusAccepted {
			rejected++
		}
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		var er errorResponse
		json.NewDecoder(resp.Body).Decode(&er)
		resp.Body.Close()
		if resp.StatusCode != c.status || er.Class != c.class {
			t.Errorf("%s: got %d class %q, want %d %q (%s)",
				c.name, resp.StatusCode, er.Class, c.status, c.class, er.Error)
		}
	}
	if n := scrapeMetric(t, ts, `qisimd_jobs_rejected_total{reason="invalid"}`); n != float64(rejected) {
		t.Errorf("invalid rejections counted %v, want %d", n, rejected)
	}

	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999", nil); code != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", code)
	}
	missing := strings.Repeat("ab", 32) // well-formed key, nothing stored
	if code := getJSON(t, ts.URL+"/v1/results/"+missing, nil); code != http.StatusNotFound {
		t.Errorf("missing result: status %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/v1/results/not-a-key", nil); code != http.StatusBadRequest {
		t.Errorf("malformed key: status %d, want 400", code)
	}
}

// TestQueueFullMapsTo429: once the bounded queue rejects, the HTTP layer
// answers 429 and the rejection metric counts it.
func TestQueueFullMapsTo429(t *testing.T) {
	// One worker pinned by a slow job + depth-1 queue: the third distinct
	// submission must be refused.
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := func(seed int) string {
		return fmt.Sprintf(`{"kind":"surface.mc","params":{"distance":9,"shots":2000000,"shard_size":64,"seed":%d}}`, seed)
	}
	// Occupy the worker and the queue slot (distinct seeds → distinct keys).
	postJob(t, ts, slow(101))
	postJob(t, ts, slow(102))
	code := 0
	for seed := 103; seed < 120; seed++ { // races with the worker picking up
		resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(slow(seed)))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if code = resp.StatusCode; code == http.StatusTooManyRequests {
			break
		}
	}
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue never refused: last status %d, want 429", code)
	}
	if n := scrapeMetric(t, ts, `qisimd_jobs_rejected_total{reason="queue-full"}`); n < 1 {
		t.Fatalf("rejected{queue-full} = %v, want >= 1", n)
	}
}

// TestHealthz: healthy while serving.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	var body map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, body)
	}
}
