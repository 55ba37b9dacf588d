// Design-space-exploration end-to-end acceptance: the consumer-level proof
// of the dse.sweep contract over the real HTTP surface. A 108-point sweep's
// SSE event stream carries at least two partial Pareto frontiers before the
// terminal state event; a resubmitted sweep is served byte-identically from
// the cache and an overlapping sweep reaches the same frontier; the final
// frontier is byte-identical across worker counts {1,4}; a crash-instant
// WAL replayed into a fresh service recovers the sweep to the
// byte-identical result; a dse.sweep over the Fig. 17 grid reports exactly
// the outcome experiments.DSE computes; and that Fig. 17 CMOS-vs-ERSFQ
// sweep is pinned by a golden sha256 so any drift in the model or the
// canonical serialisation is caught here, not in a downstream consumer.
package qisim_test

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"
	"time"

	"qisim/internal/dse"
	"qisim/internal/experiments"
	"qisim/internal/rescache"
	"qisim/internal/service"
)

// dseGoldenSHA256 pins the canonical bytes of the Fig. 17 CMOS-vs-ERSFQ
// sweep (experiments.DSESweepGrid + DSEObjectives, wave 8, pruned). If a
// deliberate model change moves it, re-pin from the failure message — but
// an unexplained move means the sweep lost determinism.
const dseGoldenSHA256 = "744f604dbbeea739914caf51ff68bfd754b0ca6f9a8696c931ffc5e9f937465d"

// dseFanoutSweep is the big end-to-end request: 2 designs x 54 extra-error
// points = 108 grid points, wave 8 -> 14 waves, so well over 2 partial
// frontiers are published. Prune is off so every point is evaluated.
const dseFanoutSweep = `{"kind":"dse.sweep","params":{
  "axes":[
    {"name":"design","values":["4K-CMOS-advanced-opt67","ERSFQ-opt8"]},
    {"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-3,"points":54}}
  ],
  "wave":8,"prune":false}}`

// startDSEService boots a started service plus its httptest front end and
// tears both down with the test.
func startDSEService(t *testing.T, cfg service.Config) (*service.Server, *httptest.Server) {
	t.Helper()
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	svc.Start()
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		if err := svc.Drain(context.Background()); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return svc, srv
}

// dseSubmit posts one job request and returns the submit outcome
// (queued/coalesced/cached) and the assigned job ID.
func dseSubmit(t *testing.T, base, body string) (outcome, id string) {
	t.Helper()
	resp, err := http.Post(base+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
		t.Fatalf("submit returned %d: %s", resp.StatusCode, raw)
	}
	var sub struct {
		Outcome string `json:"outcome"`
		Job     struct {
			ID string `json:"id"`
		} `json:"job"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		t.Fatalf("decode submit response: %v (%s)", err, raw)
	}
	if sub.Job.ID == "" {
		t.Fatalf("submit response carries no job id: %s", raw)
	}
	return sub.Outcome, sub.Job.ID
}

// dseWaitResult polls one job to completion and returns its result bytes.
func dseWaitResult(t *testing.T, base, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := http.Get(base + "/v1/jobs/" + id)
		if err != nil {
			t.Fatalf("get job %s: %v", id, err)
		}
		var snap struct {
			State  string          `json:"state"`
			Error  string          `json:"error"`
			Result json.RawMessage `json:"result"`
		}
		err = json.NewDecoder(resp.Body).Decode(&snap)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode job %s: %v", id, err)
		}
		switch snap.State {
		case "done":
			return snap.Result
		case "failed":
			t.Fatalf("job %s failed: %s", id, snap.Error)
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
	return nil
}

// dseFrontierOf extracts the final frontier block from a dse.sweep result
// envelope. The envelope is marshaled from structs and sorted maps, so the
// raw frontier bytes are canonical and byte-comparable.
func dseFrontierOf(t *testing.T, result []byte) []byte {
	t.Helper()
	var envl struct {
		Result struct {
			Frontier json.RawMessage `json:"frontier"`
		} `json:"result"`
	}
	if err := json.Unmarshal(result, &envl); err != nil {
		t.Fatalf("decode sweep envelope: %v", err)
	}
	if len(envl.Result.Frontier) == 0 {
		t.Fatalf("sweep result carries no frontier block: %.200s", result)
	}
	return envl.Result.Frontier
}

// TestDSESweepFanoutStreamingAndDedupe drives the headline scenario: one
// 108-point sweep streams partial frontiers over SSE and lands a final
// frontier in the result envelope; a byte-identical resubmission is
// answered from the result cache, and an overlapping sweep (same grid,
// another wave size) reaches the same frontier.
func TestDSESweepFanoutStreamingAndDedupe(t *testing.T) {
	_, srv := startDSEService(t, service.Config{Workers: 4, CacheEntries: 512, QueueDepth: 256})

	outcome, id := dseSubmit(t, srv.URL, dseFanoutSweep)
	if outcome != "queued" {
		t.Fatalf("first submission outcome %q, want queued", outcome)
	}

	// Stream the sweep's events. The stream replays the retained log and
	// then follows live until the job finalizes, so reading to EOF yields
	// every event in log order regardless of how fast the sweep runs; the
	// ordering assertion — partial frontiers strictly before the terminal
	// state — is therefore deterministic.
	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/events")
	if err != nil {
		t.Fatalf("open event stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("event stream content type %q", ct)
	}
	frontiersBeforeDone, doneSeen := 0, false
	var lastFrontier struct {
		Wave     int `json:"wave"`
		Waves    int `json:"waves"`
		Frontier struct {
			Points []json.RawMessage `json:"points"`
		} `json:"frontier"`
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			switch event {
			case "frontier":
				if doneSeen {
					t.Fatalf("frontier event after the terminal state event")
				}
				frontiersBeforeDone++
				if err := json.Unmarshal([]byte(data), &lastFrontier); err != nil {
					t.Fatalf("decode frontier event: %v (%s)", err, data)
				}
			case "state":
				var st struct {
					State string `json:"state"`
				}
				if err := json.Unmarshal([]byte(data), &st); err != nil {
					t.Fatalf("decode state event: %v (%s)", err, data)
				}
				if st.State == "done" || st.State == "failed" {
					if st.State == "failed" {
						t.Fatalf("sweep failed mid-stream: %s", data)
					}
					doneSeen = true
				}
			}
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("read event stream: %v", err)
	}
	if !doneSeen {
		t.Fatalf("event stream closed without a terminal state event")
	}
	if frontiersBeforeDone < 2 {
		t.Fatalf("saw %d partial frontiers before completion, want >= 2", frontiersBeforeDone)
	}
	if lastFrontier.Wave != lastFrontier.Waves || len(lastFrontier.Frontier.Points) == 0 {
		t.Fatalf("last streamed frontier not final: wave %d/%d, %d points",
			lastFrontier.Wave, lastFrontier.Waves, len(lastFrontier.Frontier.Points))
	}

	result := dseWaitResult(t, srv.URL, id)
	frontier := dseFrontierOf(t, result)

	// Byte-identical resubmission: the sweep itself is served from the
	// result cache, no recomputation.
	outcome2, id2 := dseSubmit(t, srv.URL, dseFanoutSweep)
	if outcome2 != "cached" {
		t.Fatalf("resubmitted sweep outcome %q, want cached", outcome2)
	}
	if got := dseWaitResult(t, srv.URL, id2); !bytes.Equal(got, result) {
		t.Fatalf("cached sweep result differs from original:\ngot  %.200s\nwant %.200s", got, result)
	}

	// Overlapping sweep: same grid under a different wave size is a
	// different sweep key, and its final frontier must match byte-for-byte.
	overlap := strings.Replace(dseFanoutSweep, `"wave":8`, `"wave":32`, 1)
	outcome3, id3 := dseSubmit(t, srv.URL, overlap)
	if outcome3 != "queued" {
		t.Fatalf("overlapping sweep outcome %q, want queued", outcome3)
	}
	overlapResult := dseWaitResult(t, srv.URL, id3)
	if got := dseFrontierOf(t, overlapResult); !bytes.Equal(got, frontier) {
		t.Fatalf("overlapping sweep frontier differs:\ngot  %.200s\nwant %.200s", got, frontier)
	}
}

// TestDSESweepWorkerCountInvariance is the determinism headline: the same
// sweep request on a 1-worker and a 4-worker service produces byte-identical
// result envelopes — frontier, counters, everything — even with pruning on,
// because prune decisions read only fully committed waves.
func TestDSESweepWorkerCountInvariance(t *testing.T) {
	sweep := `{"kind":"dse.sweep","params":{
	  "axes":[
	    {"name":"design","values":["4K-CMOS-advanced-opt67","ERSFQ-opt8"]},
	    {"name":"distance","values":[11,17,23]},
	    {"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-3,"points":9}}
	  ],
	  "wave":8}}`

	results := map[int][]byte{}
	for _, workers := range []int{1, 4} {
		_, srv := startDSEService(t, service.Config{Workers: workers, CacheEntries: 512, QueueDepth: 256})
		_, id := dseSubmit(t, srv.URL, sweep)
		results[workers] = dseWaitResult(t, srv.URL, id)
	}
	if !bytes.Equal(results[1], results[4]) {
		t.Fatalf("sweep result depends on worker count:\n1 worker  %.300s\n4 workers %.300s",
			results[1], results[4])
	}
}

// TestDSESweepCrashRecover kills the service while a sweep is pending and
// replays its WAL into a fresh service, which must finish the sweep with
// the byte-identical result an uninterrupted run produces. The sweep's
// submit record is the only record it writes before it resolves, so the
// WAL cut right after that record is what a crash at any instant before
// then leaves on disk.
func TestDSESweepCrashRecover(t *testing.T) {
	cfg := service.Config{Workers: 2}
	sweep := `{"kind":"dse.sweep","params":{
	  "axes":[
	    {"name":"design","values":["ERSFQ-opt8","4K-CMOS-advanced-opt67"]},
	    {"name":"distance","values":[11,17,23]},
	    {"name":"extra_gate_error","log_range":{"from":1e-6,"to":1e-3,"points":96}}
	  ],
	  "wave":4}}`

	// Life 1: the uninterrupted run, journaled.
	dirA := t.TempDir()
	cfg.DataDir = dirA
	svcA, srvA := startDSEService(t, cfg)
	if _, err := svcA.Recover(); err != nil {
		t.Fatalf("recover empty dir: %v", err)
	}
	_, id := dseSubmit(t, srvA.URL, sweep)
	want := dseWaitResult(t, srvA.URL, id)
	full, err := os.ReadFile(dirA + "/journal.wal")
	if err != nil {
		t.Fatalf("read WAL: %v", err)
	}
	submit := bytes.Index(full, []byte(`"op":"submit","kind":"dse.sweep"`))
	if submit < 0 {
		t.Fatalf("WAL holds no dse.sweep submit record:\n%s", full)
	}
	wal := full[:submit+bytes.IndexByte(full[submit:], '\n')+1]

	// Life 2: boot from the crash-instant WAL and let recovery finish the
	// sweep.
	dirB := t.TempDir()
	if err := os.WriteFile(dirB+"/journal.wal", wal, 0o644); err != nil {
		t.Fatalf("plant WAL: %v", err)
	}
	cfg.DataDir = dirB
	svcB, srvB := startDSEService(t, cfg)
	recovered, err := svcB.Recover()
	if err != nil {
		t.Fatalf("replay WAL: %v", err)
	}
	if recovered != 1 {
		t.Fatalf("crash-instant WAL recovered %d jobs, want the sweep", recovered)
	}
	resp, err := http.Get(srvB.URL + "/v1/jobs?kind=dse.sweep")
	if err != nil {
		t.Fatalf("list recovered sweeps: %v", err)
	}
	var list struct {
		Jobs []struct {
			ID string `json:"id"`
		} `json:"jobs"`
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil || len(list.Jobs) == 0 {
		t.Fatalf("recovered sweep not listed (err %v, %d jobs)", err, len(list.Jobs))
	}
	got := dseWaitResult(t, srvB.URL, list.Jobs[0].ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("recovered sweep differs from uninterrupted run:\ngot  %.300s\nwant %.300s", got, want)
	}
}

// TestDSESweepMatchesExperiment: a dse.sweep job over the Fig. 17 grid at
// wave 8 with the default objectives reports exactly the outcome
// experiments.DSE computes, so the golden pin below covers the service's
// sweep too.
func TestDSESweepMatchesExperiment(t *testing.T) {
	axes, err := json.Marshal(experiments.DSESweepGrid().Axes)
	if err != nil {
		t.Fatal(err)
	}
	_, srv := startDSEService(t, service.Config{Workers: 2})
	_, id := dseSubmit(t, srv.URL, `{"kind":"dse.sweep","params":{"axes":`+string(axes)+`,"wave":8}}`)
	var envl struct {
		Result dse.Outcome `json:"result"`
	}
	if err := json.Unmarshal(dseWaitResult(t, srv.URL, id), &envl); err != nil {
		t.Fatalf("decode sweep envelope: %v", err)
	}
	got, err := rescache.CanonicalJSON(envl.Result)
	if err != nil {
		t.Fatal(err)
	}
	r, err := experiments.DSE()
	if err != nil {
		t.Fatalf("experiments.DSE: %v", err)
	}
	if !bytes.Equal(got, r.Canonical) {
		t.Fatalf("dse.sweep outcome differs from experiments.DSE:\ngot  %.400s\nwant %.400s", got, r.Canonical)
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != dseGoldenSHA256 {
		t.Fatalf("dse.sweep outcome sha256 %s, want the golden %s", sum, dseGoldenSHA256)
	}
}

// TestDSEGoldenFrontier pins the Fig. 17 CMOS-vs-ERSFQ sweep: the canonical
// outcome bytes hash to a fixed sha256 and the frontier's leading point is
// the ERSFQ-opt8 design — the paper's headline conclusion (ERSFQ reaches
// ~82K qubits where advanced CMOS tops out near 64K) restated as Pareto
// dominance.
func TestDSEGoldenFrontier(t *testing.T) {
	r, err := experiments.DSE()
	if err != nil {
		t.Fatalf("experiments.DSE: %v", err)
	}
	if got := fmt.Sprintf("%x", sha256.Sum256(r.Canonical)); got != dseGoldenSHA256 {
		t.Fatalf("Fig. 17 sweep canonical bytes drifted:\ngot  sha256 %s\nwant sha256 %s\ncanonical: %.400s",
			got, dseGoldenSHA256, r.Canonical)
	}
	if len(r.Outcome.Frontier.Points) == 0 {
		t.Fatalf("Fig. 17 sweep frontier is empty")
	}
	lead := r.Outcome.Frontier.Points[0]
	if design, _ := lead.Params["design"].(string); design != "ERSFQ-opt8" {
		t.Fatalf("Fig. 17 frontier led by %q, want ERSFQ-opt8", design)
	}
	if q := lead.Metrics["max_qubits"]; q < 80_000 {
		t.Fatalf("ERSFQ frontier point reaches %v qubits, want the paper's ~82K scale", q)
	}
}
