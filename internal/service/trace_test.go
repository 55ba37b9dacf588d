package service

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"qisim/internal/jobs"
	"qisim/internal/obs"
)

// getBody fetches a URL and returns status + raw body.
func getBody(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestTraceEndpointStateMachine walks GET /v1/jobs/{id}/trace through its
// documented states: 404 unknown, 202 while in flight, 200 when done (in all
// three formats), 400 for a bogus format, and 404 again when tracing is
// disabled server-wide.
func TestTraceEndpointStateMachine(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 4})

	if code, _ := getBody(t, ts.URL+"/v1/jobs/j-424242/trace"); code != http.StatusNotFound {
		t.Fatalf("unknown job trace: status %d, want 404", code)
	}

	// A slow job pins one worker; its trace must answer 202 while the job is
	// queued or running (drain at cleanup truncates it harmlessly). The small
	// job that follows completes on the second worker.
	slow := `{"kind":"surface.mc","params":{"distance":11,"shots":100000000,"shard_size":64,"seed":77}}`
	code, sr := postJob(t, ts, slow)
	if code != http.StatusAccepted {
		t.Fatalf("submit slow: status %d", code)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.Job.ID+"/trace"); code != http.StatusAccepted {
		t.Fatalf("in-flight trace: status %d body %s, want 202", code, body)
	}

	// A small job runs to completion; its trace serves 200 in every format.
	code, sr2 := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":128,"shard_size":64,"seed":9}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit small: status %d", code)
	}
	waitDone(t, ts, sr2.Job.ID)

	var tr obs.Trace
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr2.Job.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("done trace: status %d, want 200", code)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("served trace fails validation: %v", err)
	}
	if tr.ID != sr2.Job.ID {
		t.Fatalf("trace ID %q, want job ID %q", tr.ID, sr2.Job.ID)
	}

	code, chromeBody := getBody(t, ts.URL+"/v1/jobs/"+sr2.Job.ID+"/trace?format=chrome")
	if code != http.StatusOK {
		t.Fatalf("chrome trace: status %d", code)
	}
	parsed, err := obs.ParseChrome(strings.NewReader(string(chromeBody)))
	if err != nil {
		t.Fatalf("chrome body does not round-trip: %v", err)
	}
	if len(parsed.Spans) != len(tr.Spans) {
		t.Fatalf("chrome round-trip lost spans: %d != %d", len(parsed.Spans), len(tr.Spans))
	}

	code, treeBody := getBody(t, ts.URL+"/v1/jobs/"+sr2.Job.ID+"/trace?format=tree")
	if code != http.StatusOK || !strings.Contains(string(treeBody), "trace "+sr2.Job.ID) {
		t.Fatalf("tree trace: status %d body %q", code, treeBody)
	}

	if code, _ := getBody(t, ts.URL+"/v1/jobs/"+sr2.Job.ID+"/trace?format=yaml"); code != http.StatusBadRequest {
		t.Fatalf("bogus format: status %d, want 400", code)
	}
}

// TestTraceEndpointDisabledTracing: with TraceMaxSpans < 0 no job records a
// trace, so even a finished job answers 404.
func TestTraceEndpointDisabledTracing(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, TraceMaxSpans: -1})
	code, sr := postJob(t, ts, smallMC)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("job finished %s", snap.State)
	}
	if code, body := getBody(t, ts.URL+"/v1/jobs/"+sr.Job.ID+"/trace"); code != http.StatusNotFound {
		t.Fatalf("disabled tracing trace: status %d body %s, want 404", code, body)
	}
}

// TestTraceE2ESpanTree is the acceptance walk: run a Monte-Carlo job on a
// crash-safe server and assert the retrieved span tree holds the queue-wait,
// executor, engine, per-shard, merge and checkpoint spans with consistent
// nesting and monotonic timestamps.
func TestTraceE2ESpanTree(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, DataDir: t.TempDir()})

	// 256 shots / shard_size 64 → exactly 4 shards.
	code, sr := postJob(t, ts, smallMC)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s)", snap.State, snap.Error)
	}

	var tr obs.Trace
	if code := getJSON(t, ts.URL+"/v1/jobs/"+sr.Job.ID+"/trace", &tr); code != http.StatusOK {
		t.Fatalf("trace: status %d", code)
	}
	if err := tr.Check(); err != nil {
		t.Fatalf("trace invariants: %v\n%s", err, tr.TreeString())
	}
	if tr.Dropped != 0 {
		t.Fatalf("trace dropped %d spans with the default buffer", tr.Dropped)
	}

	root, ok := tr.Find("job")
	if !ok || root.Parent != 0 {
		t.Fatalf("no root job span (%+v)", root)
	}
	queueWait, ok := tr.Find("queue.wait")
	if !ok || queueWait.Parent != root.ID {
		t.Fatalf("queue.wait missing or mis-parented (%+v)", queueWait)
	}
	exec, ok := tr.Find("executor")
	if !ok || exec.Parent != root.ID {
		t.Fatalf("executor missing or mis-parented (%+v)", exec)
	}
	if queueWait.EndNS > exec.EndNS {
		t.Fatalf("queue.wait [%d,%d] outlives executor end %d",
			queueWait.StartNS, queueWait.EndNS, exec.EndNS)
	}
	run, ok := tr.Find("mc.run")
	if !ok {
		t.Fatal("no mc.run engine span")
	}
	// The engine root must sit under the executor (directly or transitively).
	if run.Parent != exec.ID {
		t.Fatalf("mc.run parent %d, want executor %d\n%s", run.Parent, exec.ID, tr.TreeString())
	}

	if n := tr.Count("shard"); n != 4 {
		t.Fatalf("shard spans = %d, want 4 (256 shots / 64)\n%s", n, tr.TreeString())
	}
	if n := tr.Count("merge"); n < 1 {
		t.Fatal("no merge spans")
	}
	if n := tr.Count("checkpoint.save"); n < 1 {
		t.Fatal("no checkpoint.save spans (DataDir is set)")
	}
	if n := tr.Count("journal.append"); n < 2 {
		t.Fatalf("journal.append spans = %d, want >= 2 (submit + terminal)", n)
	}
	for _, s := range tr.Spans {
		switch s.Name {
		case "shard":
			if s.Parent != run.ID {
				t.Fatalf("shard span %d parented to %d, want mc.run %d", s.ID, s.Parent, run.ID)
			}
			if s.Attr("shots") == "" {
				t.Fatalf("shard span %d carries no shots attribute: %+v", s.ID, s.Attrs)
			}
		case "merge":
			if s.Parent != run.ID {
				t.Fatalf("merge span %d parented to %d, want mc.run %d", s.ID, s.Parent, run.ID)
			}
		}
	}
}

// TestStageHistogramsFromTraces: a finished job's trace must fold into the
// qisimd_stage_seconds histogram, one observation per span under its name,
// visible through /metrics in exposition format.
func TestStageHistogramsFromTraces(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sr := postJob(t, ts, smallMC)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitDone(t, ts, sr.Job.ID)

	for series, want := range map[string]float64{
		`qisimd_stage_seconds_count{stage="executor"}`:   1,
		`qisimd_stage_seconds_count{stage="queue.wait"}`: 1,
		`qisimd_stage_seconds_count{stage="mc.run"}`:     1,
		`qisimd_stage_seconds_count{stage="shard"}`:      4,
	} {
		if got := scrapeMetric(t, ts, series); got != want {
			t.Errorf("%s = %v, want %v", series, got, want)
		}
	}

	// The exposition is well-formed: cumulative buckets ending at +Inf equal
	// the count, and the family is declared a histogram.
	_, raw := getBody(t, ts.URL+"/metrics")
	text := string(raw)
	if !strings.Contains(text, "# TYPE qisimd_stage_seconds histogram") {
		t.Fatal("qisimd_stage_seconds not declared as a histogram")
	}
	inf := fmt.Sprintf(`qisimd_stage_seconds_bucket{stage="shard",le="+Inf"} %d`, 4)
	if !strings.Contains(text, inf) {
		t.Fatalf("missing terminal bucket %q in exposition:\n%s", inf, text)
	}
	// Each span is observed once: no per-stage copy of the family.
	for _, family := range []string{"qisimd_shard_seconds", "qisimd_queue_wait_seconds"} {
		if strings.Contains(text, "# TYPE "+family+" ") {
			t.Errorf("%s duplicates a qisimd_stage_seconds stage", family)
		}
	}
}

// TestPprofMuxE2E: the separate pprof mux serves live profiles — the same
// handler qisimd mounts on -pprof.
func TestPprofMuxE2E(t *testing.T) {
	ts := httptest.NewServer(obs.PprofMux())
	defer ts.Close()
	for _, path := range []string{
		"/debug/pprof/",
		"/debug/pprof/cmdline",
		"/debug/pprof/symbol",
		"/debug/pprof/profile?seconds=1",
	} {
		code, body := getBody(t, ts.URL+path)
		if code != http.StatusOK {
			t.Errorf("GET %s: status %d", path, code)
		}
		if len(body) == 0 {
			t.Errorf("GET %s: empty body", path)
		}
	}
}
