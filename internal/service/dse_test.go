package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"qisim/internal/dse"
	"qisim/internal/jobs"
	"qisim/internal/microarch"
	"qisim/internal/scalability"
)

func TestDSEPointEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	body := `{"kind":"dse.point","params":{"design":"ERSFQ-opt8","distance":23,"extra_gate_error":1e-5}}`
	code, sr := postJob(t, ts, body)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("state %s (%s)", snap.State, snap.Error)
	}
	var envl struct {
		Result map[string]float64 `json:"result"`
	}
	if err := json.Unmarshal(snap.Result, &envl); err != nil {
		t.Fatal(err)
	}
	opt := scalability.DefaultOptions()
	opt.Distance = 23
	d, _ := microarch.DesignByName("ERSFQ-opt8")
	want, err := scalability.AnalyzePointChecked(d, 1e-5, opt)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range want {
		if envl.Result[k] != v {
			t.Errorf("metric %s = %v, want %v", k, envl.Result[k], v)
		}
	}
	// A resubmission is served byte-exactly from the cache.
	code2, sr2 := postJob(t, ts, body)
	if code2 != http.StatusOK || sr2.Outcome != "cached" {
		t.Fatalf("resubmit: status %d outcome %q, want 200 cached", code2, sr2.Outcome)
	}
	if !bytes.Equal(sr2.Job.Result, snap.Result) {
		t.Error("cached result differs from the computed one")
	}
	// Unknown design and malformed distance are config errors (400).
	if code, _ := postJob(t, ts, `{"kind":"dse.point","params":{"design":"no-such"}}`); code != http.StatusBadRequest {
		t.Errorf("unknown design: status %d, want 400", code)
	}
	if code, _ := postJob(t, ts, `{"kind":"dse.point","params":{"design":"ERSFQ-opt8","distance":4}}`); code != http.StatusBadRequest {
		t.Errorf("even distance: status %d, want 400", code)
	}
}

const smallSweep = `{"kind":"dse.sweep","params":{
	"axes":[
		{"name":"design","values":["4K-CMOS-baseline","ERSFQ-opt8","RSFQ-opt345"]},
		{"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-4,"points":4}}],
	"wave":5}}`

// sweepResultOf decodes a dse.sweep result envelope.
func sweepResultOf(t *testing.T, raw json.RawMessage) sweepResult {
	t.Helper()
	var envl struct {
		Result sweepResult `json:"result"`
	}
	if err := json.Unmarshal(raw, &envl); err != nil {
		t.Fatalf("decode sweep envelope: %v", err)
	}
	return envl.Result
}

func TestDSESweepEndToEnd(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})

	code, sr := postJob(t, ts, smallSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	sweep := waitDone(t, ts, sr.Job.ID)
	if sweep.State != jobs.StateDone {
		t.Fatalf("sweep failed: %s (%s)", sweep.ErrorClass, sweep.Error)
	}
	res := sweepResultOf(t, sweep.Result)
	if res.GridSize != 12 {
		t.Fatalf("grid size %d, want 12", res.GridSize)
	}
	if res.Evaluated+res.Pruned != 12 {
		t.Fatalf("evaluated %d + pruned %d != 12", res.Evaluated, res.Pruned)
	}
	if len(res.Frontier.Points) == 0 {
		t.Fatal("empty final frontier")
	}
	if res.Status.StopReason != "completed" || res.Status.Truncated {
		t.Fatalf("status %+v, want completed", res.Status)
	}
	// Dominance sanity on the final frontier: no member dominates another.
	objs := res.Frontier.Objectives
	for _, a := range res.Frontier.Points {
		for _, b := range res.Frontier.Points {
			if a.Index != b.Index && dse.Dominates(objs, a.Metrics, b.Metrics) {
				t.Errorf("frontier member %d dominates member %d", a.Index, b.Index)
			}
		}
	}
	// The sweep evaluated its points itself: the job table holds the sweep
	// alone, and the result cache its envelope alone.
	var list struct {
		Jobs  []jobs.Snapshot `json:"jobs"`
		Count int             `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK {
		t.Fatalf("list: status %d", code)
	}
	if list.Count != 1 || list.Jobs[0].ID != sweep.ID {
		t.Fatalf("job table %+v, want the sweep %s alone", list.Jobs, sweep.ID)
	}
	if list.Jobs[0].Result != nil {
		t.Error("list snapshots must strip result bodies")
	}
	if n := srv.cache.Len(); n != 1 {
		t.Errorf("result cache holds %d entries, want the sweep's envelope alone", n)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?kind=bogus", nil); code != http.StatusBadRequest {
		t.Errorf("bogus kind filter: status %d, want 400", code)
	}

	// Resubmitting the identical sweep is a byte-exact cache hit.
	code2, sr2 := postJob(t, ts, smallSweep)
	if code2 != http.StatusOK || sr2.Outcome != "cached" {
		t.Fatalf("resubmit: status %d outcome %q, want 200 cached", code2, sr2.Outcome)
	}
	if !bytes.Equal(sr2.Job.Result, sweep.Result) {
		t.Error("cached sweep result differs")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs?limit=1", &list); code != http.StatusOK || list.Count != 1 || list.Jobs[0].ID != sr2.Job.ID {
		t.Errorf("limit=1: status %d, %+v, want the cached resubmission alone", code, list.Jobs)
	}
}

// TestDSESweepIsolation: a sweep larger than the record window and the
// result cache touches neither beyond its own entry, so a finished job's
// record and cached result outlive it.
func TestDSESweepIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	code, sr := postJob(t, ts, smallMC)
	if code != http.StatusAccepted {
		t.Fatalf("submit MC: status %d", code)
	}
	first := waitDone(t, ts, sr.Job.ID)
	if first.State != jobs.StateDone {
		t.Fatalf("MC job: %s (%s)", first.State, first.Error)
	}
	// 2 designs x 3 distances x 200 extra errors = 1,200 points: more than
	// the default 1,024 records and 256 cache entries.
	big := `{"kind":"dse.sweep","params":{"axes":[
		{"name":"design","values":["4K-CMOS-advanced-opt67","ERSFQ-opt8"]},
		{"name":"distance","values":[11,17,23]},
		{"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-3,"points":200}}],
		"prune":false}}`
	_, ssr := postJob(t, ts, big)
	sweep := waitDone(t, ts, ssr.Job.ID)
	if sweep.State != jobs.StateDone {
		t.Fatalf("sweep: %s (%s)", sweep.State, sweep.Error)
	}
	if res := sweepResultOf(t, sweep.Result); res.Evaluated != 1200 {
		t.Fatalf("sweep evaluated %d points, want 1200", res.Evaluated)
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/"+first.ID, nil); code != http.StatusOK {
		t.Errorf("GET the first job after the sweep: status %d, want 200", code)
	}
	var list struct {
		Jobs  []jobs.Snapshot `json:"jobs"`
		Count int             `json:"count"`
	}
	if code := getJSON(t, ts.URL+"/v1/jobs", &list); code != http.StatusOK || list.Count != 2 ||
		list.Jobs[0].ID != sweep.ID || list.Jobs[1].ID != first.ID {
		t.Errorf("job table: status %d, %d jobs, want the sweep and the first job alone", code, list.Count)
	}
	if code, again := postJob(t, ts, smallMC); code != http.StatusOK || again.Outcome != "cached" {
		t.Errorf("resubmitting the first job: status %d outcome %q, want 200 cached", code, again.Outcome)
	}
}

// TestDSESweepCancelWhileQueued: a sweep cancelled while it waits behind a
// blocked job runs against its dead context, evaluates nothing and
// finishes done as an uncached Truncated partial.
func TestDSESweepCancelWhileQueued(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	// rel_se 0 and a huge budget: the blocker runs until it is cancelled.
	_, blocker := postJob(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":50000000,"shard_size":512,"seed":11}}`)
	code, sr := postJob(t, ts, smallSweep)
	if code != http.StatusAccepted {
		t.Fatalf("submit sweep: status %d", code)
	}
	cancel := func(id string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("DELETE %s: status %d, want 202", id, resp.StatusCode)
		}
	}
	cancel(sr.Job.ID)
	if snap, _ := srv.mgr.Get(sr.Job.ID); snap.State != jobs.StateQueued {
		t.Fatalf("sweep state %s after its cancel, want still queued", snap.State)
	}
	cancel(blocker.Job.ID)
	sweep := waitDone(t, ts, sr.Job.ID)
	if sweep.State != jobs.StateDone || sweep.Status == nil || !sweep.Status.Truncated || sweep.Status.StopReason != "canceled" {
		t.Fatalf("cancelled sweep: state %s status %+v, want done, truncated, canceled", sweep.State, sweep.Status)
	}
	if res := sweepResultOf(t, sweep.Result); res.Evaluated != 0 || res.Status.Completed != 0 {
		t.Errorf("cancelled sweep evaluated %d points (status %+v), want 0", res.Evaluated, res.Status)
	}
	if code := getJSON(t, ts.URL+"/v1/results/"+string(sweep.Key), nil); code != http.StatusNotFound {
		t.Errorf("GET the cancelled sweep's result: status %d, want 404 (never cached)", code)
	}
}

// TestDSESweepDeterministicAcrossWorkers pins the tentpole contract: the
// same sweep on 1-worker and 4-worker servers produces byte-identical
// result envelopes.
func TestDSESweepDeterministicAcrossWorkers(t *testing.T) {
	var bodies [][]byte
	for _, workers := range []int{1, 4} {
		_, ts := newTestServer(t, Config{Workers: workers, QueueDepth: 16})
		_, sr := postJob(t, ts, smallSweep)
		snap := waitDone(t, ts, sr.Job.ID)
		if snap.State != jobs.StateDone {
			t.Fatalf("workers=%d: sweep failed: %s", workers, snap.Error)
		}
		bodies = append(bodies, snap.Result)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Error("sweep result differs between 1-worker and 4-worker servers")
	}
}

// TestDSESweepEventsSSE replays a finished sweep's event log over the SSE
// endpoint: per-wave frontier events in order, terminal state event last.
func TestDSESweepEventsSSE(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	_, sr := postJob(t, ts, smallSweep)
	sweep := waitDone(t, ts, sr.Job.ID)
	if sweep.State != jobs.StateDone {
		t.Fatalf("sweep failed: %s", sweep.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/jobs/" + sweep.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("events: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	type sse struct {
		id    string
		event string
		data  string
	}
	var events []sse
	var cur sse
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			events = append(events, cur)
			cur = sse{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	if len(events) == 0 {
		t.Fatal("no SSE events")
	}
	frontiers := 0
	for i, ev := range events {
		if ev.id != fmt.Sprint(i+1) {
			t.Errorf("event %d has id %q, want contiguous seq", i, ev.id)
		}
		if ev.event == "frontier" {
			frontiers++
			var pr dse.Progress
			if err := json.Unmarshal([]byte(ev.data), &pr); err != nil {
				t.Fatalf("frontier event payload: %v", err)
			}
			if pr.Wave < 1 || pr.Wave > pr.Waves {
				t.Errorf("frontier wave %d of %d out of range", pr.Wave, pr.Waves)
			}
		}
	}
	// 12 points at wave 5 → 3 waves → 3 frontier events.
	if frontiers != 3 {
		t.Errorf("%d frontier events, want 3", frontiers)
	}
	last := events[len(events)-1]
	if last.event != "state" || !strings.Contains(last.data, `"done"`) {
		t.Errorf("last event %q %q, want terminal done state", last.event, last.data)
	}

	// Unknown job → 404.
	if code := getJSON(t, ts.URL+"/v1/jobs/j-999999/events", nil); code != http.StatusNotFound {
		t.Errorf("unknown job events: status %d, want 404", code)
	}
}

// TestTenantQuotaHTTP exercises the quota 429: a distinct quota-exceeded
// body and metric, no interference with other tenants, and release on
// cancel.
func TestTenantQuotaHTTP(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 16, TenantQuota: 1})

	post := func(tenant, body string) (*http.Response, submitResponse) {
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", "application/json")
		if tenant != "" {
			req.Header.Set("X-QIsim-Tenant", tenant)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var sr submitResponse
		json.NewDecoder(resp.Body).Decode(&sr) //nolint:errcheck
		return resp, sr
	}

	// A long-running job pins tenant alice at her quota of 1 (rel_se 0 and a
	// huge budget: it will not finish until cancelled).
	big := `{"kind":"surface.mc","params":{"distance":3,"shots":50000000,"shard_size":512,"seed":11}}`
	resp, sr := post("alice", big)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	held := sr.Job.ID

	// Second in-flight job for alice: 429 with the distinct quota body.
	resp2, _ := post("alice", `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":12}}`)
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota submit: status %d, want 429", resp2.StatusCode)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("over-quota response missing Retry-After")
	}
	var eresp errorResponse
	{
		r3, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/jobs", strings.NewReader(`{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":12}}`))
		r3.Header.Set("X-QIsim-Tenant", "alice")
		resp3, err := http.DefaultClient.Do(r3)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp3.Body).Decode(&eresp); err != nil {
			t.Fatal(err)
		}
		resp3.Body.Close()
		if resp3.StatusCode != http.StatusTooManyRequests || eresp.Class != "quota-exceeded" {
			t.Fatalf("over-quota body: status %d class %q, want 429 quota-exceeded", resp3.StatusCode, eresp.Class)
		}
	}
	if got := scrapeMetric(t, ts, "qisimd_quota_rejections_total"); got < 2 {
		t.Errorf("qisimd_quota_rejections_total = %v, want >= 2", got)
	}
	if got := scrapeMetric(t, ts, `qisimd_jobs_rejected_total{reason="quota-exceeded"}`); got < 2 {
		t.Errorf(`rejected{quota-exceeded} = %v, want >= 2`, got)
	}

	// Another tenant is unaffected by alice's quota (the job queues behind
	// the held one — the single worker is busy until the cancel below).
	respB, srB := post("bob", `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":13}}`)
	if respB.StatusCode != http.StatusAccepted {
		t.Fatalf("bob's submit: status %d, want 202", respB.StatusCode)
	}

	// Cancelling alice's held job frees her quota slot.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+held, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusAccepted {
		t.Fatalf("cancel: status %d, want 202", dresp.StatusCode)
	}
	heldSnap := waitDone(t, ts, held)
	if heldSnap.Status == nil || !heldSnap.Status.Truncated {
		t.Fatalf("cancelled job status %+v, want truncated partial", heldSnap.Status)
	}
	waitDone(t, ts, srB.Job.ID)
	resp4, sr4 := post("alice", `{"kind":"surface.mc","params":{"distance":3,"shots":256,"shard_size":64,"seed":14}}`)
	if resp4.StatusCode != http.StatusAccepted {
		t.Fatalf("post-cancel submit: status %d, want 202", resp4.StatusCode)
	}
	waitDone(t, ts, sr4.Job.ID)

	// DELETE on an unknown job is a 404.
	req2, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/j-424242", nil)
	nresp, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Errorf("cancel unknown: status %d, want 404", nresp.StatusCode)
	}
}

// TestDSESweepValidation covers sweep config errors surfacing as 400s.
func TestDSESweepValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	for name, body := range map[string]string{
		"unknown axis":     `{"kind":"dse.sweep","params":{"axes":[{"name":"coolant","values":[1]}]}}`,
		"unknown design":   `{"kind":"dse.sweep","params":{"axes":[{"name":"design","values":["nope"]}]}}`,
		"bad distance val": `{"kind":"dse.sweep","params":{"axes":[{"name":"distance","values":[4]}]}}`,
		"bad extra":        `{"kind":"dse.sweep","params":{"axes":[{"name":"extra_gate_error","values":[2.5]}]}}`,
		"bad objective":    `{"kind":"dse.sweep","params":{"objectives":[{"metric":"nope","goal":"max"}]}}`,
		"bad goal":         `{"kind":"dse.sweep","params":{"objectives":[{"metric":"max_qubits","goal":"upward"}]}}`,
		"negative wave":    `{"kind":"dse.sweep","params":{"wave":-3}}`,
	} {
		if code, _ := postJob(t, ts, body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	// The default grid (no axes) sweeps every named design.
	code, sr := postJob(t, ts, `{"kind":"dse.sweep","params":{}}`)
	if code != http.StatusAccepted {
		t.Fatalf("default sweep: status %d", code)
	}
	snap := waitDone(t, ts, sr.Job.ID)
	if snap.State != jobs.StateDone {
		t.Fatalf("default sweep failed: %s", snap.Error)
	}
	res := sweepResultOf(t, snap.Result)
	if want := len(microarch.AllDesigns()); res.GridSize != want {
		t.Errorf("default grid size %d, want %d", res.GridSize, want)
	}
}
