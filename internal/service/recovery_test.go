package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/dist"
	"qisim/internal/jobs"
	"qisim/internal/obs"
	"qisim/internal/rescache"
	"qisim/internal/simrun"
)

// slowMC is a run long enough to be killed mid-flight but bounded enough to
// finish promptly when resumed (serial worker, small shards → many commits).
const slowMCParams = `{"distance":5,"shots":40000,"shard_size":256,"seed":9,"workers":1}`

func submitRaw(t *testing.T, ts *httptest.Server, body string) (int, submitResponse) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sr submitResponse
	json.NewDecoder(resp.Body).Decode(&sr)
	return resp.StatusCode, sr
}

// TestRecoveryResumesInterruptedJob is the daemon-crash contract end to
// end: life 1 accepts a job, journals it, checkpoints its shard prefix and
// "crashes" (base-context cancel + drain → the job lands truncated,
// journaled as still-pending). Life 2 on the same data dir replays the
// journal, resumes the job from its checkpoint, and completes it — with
// result bytes identical to a never-interrupted run, the recovery counters
// set, the completed result cacheable, and the checkpoint retired.
func TestRecoveryResumesInterruptedJob(t *testing.T) {
	dataDir := t.TempDir()
	req := fmt.Sprintf(`{"kind":"surface.mc","params":%s}`, slowMCParams)

	// Cold reference: the same request on a pristine in-memory server.
	coldSrv, coldTS := newTestServer(t, Config{Workers: 2})
	_, coldSub := submitRaw(t, coldTS, req)
	coldSnap, err := coldSrv.mgr.Wait(context.Background(), coldSub.Job.ID)
	if err != nil || coldSnap.State != jobs.StateDone {
		t.Fatalf("cold run: %v (%+v)", err, coldSnap)
	}
	coldBytes := string(coldSnap.Result)

	// Life 1: accept the job, let it commit some shards, then "crash".
	base1, crash := context.WithCancel(context.Background())
	srv1, err := New(Config{Workers: 1, DataDir: dataDir, BaseContext: base1})
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	if _, err := srv1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	code, sub := submitRaw(t, ts1, req)
	if code != http.StatusAccepted {
		t.Fatalf("life-1 submit: HTTP %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap, _ := srv1.mgr.Get(sub.Job.ID)
		if snap.Progress.Completed >= 2*256 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never committed a shard prefix")
		}
		time.Sleep(2 * time.Millisecond)
	}
	crash() // the "power cut": every in-flight run is cancelled mid-flight
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv1.Drain(dctx); err != nil {
		t.Fatalf("life-1 drain: %v", err)
	}
	ts1.Close()
	killed, _ := srv1.mgr.Get(sub.Job.ID)
	if killed.State != jobs.StateDone || killed.Status == nil || !killed.Status.Truncated {
		t.Fatalf("life-1 job not a truncated partial: %+v", killed)
	}
	ckpt := checkpoint.PathFor(filepath.Join(dataDir, "checkpoints"), string(sub.Job.Key))
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint survived the crash: %v", err)
	}

	// Life 2: fresh server, same data dir.
	srv2, err := New(Config{Workers: 2, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Drain(ctx)
	})
	n, err := srv2.Recover()
	if err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v, want exactly the interrupted job", n, err)
	}
	// Wait for the recovered job to finish, then fetch it via the cache:
	// a resumed-complete result must be cacheable.
	for srv2.mgr.InFlight() > 0 {
		if time.Now().After(deadline.Add(20 * time.Second)) {
			t.Fatal("recovered job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	body, ok := srv2.cache.Get(rescache.Key(sub.Job.Key))
	if !ok {
		t.Fatal("recovered result not cached")
	}
	if string(body) != coldBytes {
		t.Fatalf("recovered result differs from the uninterrupted run:\n got  %.120s...\n want %.120s...", body, coldBytes)
	}
	if v := scrapeMetric(t, ts2, "qisimd_jobs_recovered_total"); v != 1 {
		t.Errorf("qisimd_jobs_recovered_total = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts2, "qisimd_jobs_resumed_total"); v != 1 {
		t.Errorf("qisimd_jobs_resumed_total = %v, want 1", v)
	}
	if v := scrapeMetric(t, ts2, "qisimd_journal_replayed_entries_total"); v < 2 {
		t.Errorf("qisimd_journal_replayed_entries_total = %v, want >= 2 (submit + truncated)", v)
	}
	if v := scrapeMetric(t, ts2, "qisimd_checkpoints_saved_total"); v < 1 {
		t.Errorf("qisimd_checkpoints_saved_total = %v, want >= 1", v)
	}
	// The completed job's checkpoint is retired; the journal resolves it.
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not retired after completion: %v", err)
	}
}

// gatedCore runs the windows that start below gate and holds every other
// one until its context ends: a worker that reports the first units of a
// job and then hangs on the next.
type gatedCore struct {
	dist.Core
	gate int
}

func (g gatedCore) RunWindow(ctx context.Context, p dist.Plan, start, end int) ([]json.RawMessage, []int, error) {
	if start >= g.gate {
		<-ctx.Done()
		return nil, nil, ctx.Err()
	}
	return g.Core.RunWindow(ctx, p, start, end)
}

// runWorker runs one HTTP fleet worker on cores against base until the
// returned stop is called.
func runWorker(t *testing.T, base, id string, cores dist.CoreBuilder) (stop func()) {
	t.Helper()
	w, err := dist.NewWorker(dist.WorkerConfig{ID: id, Coordinator: &dist.Client{Base: base},
		Cores: cores, PollInterval: 2 * time.Millisecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // ends by cancellation
	}()
	var once sync.Once
	stop = func() { once.Do(func() { cancel(); <-done }) }
	t.Cleanup(stop)
	return stop
}

// TestCoordinatorRestartResumesFleetCheckpoint restarts a fleet
// coordinator in qisimd's boot order. Life 1 folds the first two units of
// a job from its one HTTP worker and "crashes" (base-context cancel, then
// drain): the fleet lane leaves the job's checkpoint at the folded
// frontier. Life 2 runs New, Start and Recover before it listens, so the
// recovered job finds no worker and runs degraded; it resumes from that
// checkpoint all the same, returns the standalone bytes, and leaves no
// checkpoint and no unit directory behind.
func TestCoordinatorRestartResumesFleetCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	req := `{"kind":"surface.mc","params":{"distance":3,"shots":2048,"shard_size":64,"seed":23}}`
	_, solo := newTestServer(t, Config{Workers: 1})
	want := runToBytes(t, solo, req)
	cfg := Config{Workers: 1, DataDir: dataDir, Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 2}}

	// Life 1.
	base1, crash := context.WithCancel(context.Background())
	cfg1 := cfg
	cfg1.BaseContext = base1
	srv1, err := New(cfg1)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	if _, err := srv1.Recover(); err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1.Handler())
	stopWorker := runWorker(t, ts1.URL, "w1", func(kind string, params json.RawMessage) (dist.Core, error) {
		c, err := BuildCore(kind, params)
		return gatedCore{c, 4}, err
	})
	code, sub := submitRaw(t, ts1, req)
	if code != http.StatusAccepted {
		t.Fatalf("life-1 submit: HTTP %d", code)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(2 * time.Millisecond) {
		if snap, _ := srv1.mgr.Get(sub.Job.ID); snap.Progress.Completed >= 4*64 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("life 1 never folded two units")
		}
	}
	crash()
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := srv1.Drain(dctx); err != nil {
		t.Fatalf("life-1 drain: %v", err)
	}
	stopWorker()
	ts1.Close()
	ckpt := checkpoint.PathFor(filepath.Join(dataDir, "checkpoints"), string(sub.Job.Key))
	if snap, err := checkpoint.Load(ckpt); err != nil || snap.Shards != 4 || !snap.Final {
		t.Fatalf("life-1 checkpoint: %+v, err %v; want a Final snapshot at shard 4", snap, err)
	}

	// Life 2, in qisimd's boot order: recover, then listen, then workers.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv2.Start()
	if n, err := srv2.Recover(); err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v, want the interrupted job", n, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	t.Cleanup(func() {
		ts2.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv2.Drain(ctx) //nolint:errcheck
	})
	runWorker(t, ts2.URL, "w1", BuildCore)
	for deadline := time.Now().Add(20 * time.Second); srv2.mgr.InFlight() > 0; time.Sleep(2 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("recovered job never finished")
		}
	}
	resp, err := http.Get(ts2.URL + "/v1/results/" + string(sub.Job.Key))
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(got) != string(want) {
		t.Fatalf("recovered result: HTTP %d, err %v\n got %.120s\nwant %.120s", resp.StatusCode, err, got, want)
	}
	if v := scrapeMetric(t, ts2, "qisimd_jobs_resumed_total"); v != 1 {
		t.Errorf("qisimd_jobs_resumed_total = %v, want 1", v)
	}
	if _, err := os.Stat(ckpt); !os.IsNotExist(err) {
		t.Errorf("checkpoint not retired after completion: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dataDir, "units")); !os.IsNotExist(err) {
		t.Errorf("coordinator wrote a unit directory: %v", err)
	}
}

// TestFinishCheckpointWarnsOnWriteFailure: a checkpoint write that fails
// (here: the snapshot's parent is a regular file, which stops even root)
// is counted and surfaces as a warning on the job's logger, stamped with
// the job's ID.
func TestFinishCheckpointWarnsOnWriteFailure(t *testing.T) {
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sv := &checkpoint.Saver{Path: checkpoint.PathFor(file, strings.Repeat("a", 64)),
		Meta: checkpoint.Meta{Kind: "surface.mc", Key: strings.Repeat("a", 64), Budget: 128}, Every: 1}
	sv.Hook()(simrun.CheckpointState{Shards: 1, Shots: 64, Requested: 128, State: 1.0, Final: true})
	if sv.Err() == nil {
		t.Fatal("a snapshot under a regular file was written")
	}
	var logs strings.Builder
	logger, err := obs.NewLogger(&logs, "info", "text")
	if err != nil {
		t.Fatal(err)
	}
	saves := -1
	env := buildEnv{log: logger, onSaves: func(n int) { saves = n }}
	env.finishCheckpoint(obs.WithJobID(context.Background(), "j-000007"), sv, true)
	if saves != 0 {
		t.Errorf("saves reported %d, want 0", saves)
	}
	if out := logs.String(); !strings.Contains(out, "level=WARN") ||
		!strings.Contains(out, "checkpoint durability degraded") || !strings.Contains(out, "job=j-000007") {
		t.Errorf("no stamped durability warning in %q", out)
	}
}

// TestFailedFleetRunCountsItsSaves: a fleet job that fails after its fold
// advanced still reports the snapshot it wrote, and keeps it on disk.
func TestFailedFleetRunCountsItsSaves(t *testing.T) {
	dataDir := t.TempDir()
	srv, ts := newTestServer(t, Config{Workers: 1, DataDir: dataDir,
		Dist: DistConfig{Enabled: true, LeaseTTL: 5 * time.Second, UnitShards: 2}})
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	c := srv.Dist()
	c.Register(ctx, dist.WorkerInfo{ID: "w1"}) //nolint:errcheck
	code, sub := submitRaw(t, ts, `{"kind":"surface.mc","params":{"distance":3,"shots":512,"shard_size":64,"seed":3}}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: HTTP %d", code)
	}
	claim := func() *dist.LeaseGrant {
		t.Helper()
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
			g, err := c.Claim(ctx, "w1", "")
			if err != nil {
				t.Fatal(err)
			}
			if g != nil {
				return g
			}
		}
		t.Fatal("no grant")
		return nil
	}
	report := func(g *dist.LeaseGrant, forge bool) {
		t.Helper()
		core, err := BuildCore(g.Kind, g.Params)
		if err != nil {
			t.Fatal(err)
		}
		states, events, err := core.RunWindow(ctx, g.Plan, g.Start, g.End)
		if err != nil {
			t.Fatal(err)
		}
		if forge { // valid JSON of the wrong type: the fold rejects it
			for i := range states {
				states[i] = json.RawMessage(`"x"`)
			}
		}
		body, err := dist.EncodeUnitResult(dist.UnitResult{Kind: g.Kind, Key: g.Key,
			Start: g.Start, End: g.End, States: states, Events: events, Worker: "w1"})
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Report(ctx, "w1", body); err != nil {
			t.Fatal(err)
		}
	}
	report(claim(), false)
	report(claim(), true)
	if snap := waitDone(t, ts, sub.Job.ID); snap.State != jobs.StateFailed {
		t.Fatalf("job state %s, want failed", snap.State)
	}
	if v := scrapeMetric(t, ts, "qisimd_checkpoints_saved_total"); v != 1 {
		t.Errorf("qisimd_checkpoints_saved_total = %v, want the one save of the fold advance", v)
	}
	if _, err := os.Stat(checkpoint.PathFor(filepath.Join(dataDir, "checkpoints"), string(sub.Job.Key))); err != nil {
		t.Errorf("a failed run must keep its checkpoint: %v", err)
	}
}

// TestRecoveryColdStartWithoutCheckpoint covers the journal-entry-without-
// checkpoint case: the daemon died after accepting a job but before its
// first shard committed. Recovery must simply run it cold to the same
// result — a missing snapshot is a cold start, never an error.
func TestRecoveryColdStartWithoutCheckpoint(t *testing.T) {
	dataDir := t.TempDir()
	// Write the journal of a life that accepted one job and died instantly.
	j, err := jobs.OpenJournal(filepath.Join(dataDir, "journal.wal"))
	if err != nil {
		t.Fatal(err)
	}
	params := json.RawMessage(`{"distance":3,"shots":256,"shard_size":64,"seed":5}`)
	_, key, _, err := buildJob(jobRequest{Kind: "surface.mc", Params: params}, buildEnv{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(jobs.OpSubmit, jobs.KindSurfaceMC, key, params); err != nil {
		t.Fatal(err)
	}
	j.Close()

	srv, err := New(Config{Workers: 1, DataDir: dataDir})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	n, err := srv.Recover()
	if err != nil || n != 1 {
		t.Fatalf("recover: n=%d err=%v", n, err)
	}
	deadline := time.Now().Add(20 * time.Second)
	for srv.mgr.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("recovered job never finished")
		}
		time.Sleep(2 * time.Millisecond)
	}
	body, ok := srv.cache.Get(key)
	if !ok {
		t.Fatal("cold-recovered job did not complete into the cache")
	}
	// Cross-check against the in-memory reference server.
	refSrv, _ := newTestServer(t, Config{Workers: 1})
	kind, _, run, err := buildJob(jobRequest{Kind: "surface.mc", Params: params}, buildEnv{})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, err := refSrv.mgr.SubmitOpts(kind, key, params, run, jobs.SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := refSrv.mgr.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != string(ref.Result) {
		t.Fatal("cold-recovered result differs from reference")
	}
}

// TestReadyzGates walks the readiness lifecycle: recovering → ready →
// saturated → draining, while /healthz stays a pure liveness signal.
func TestReadyzGates(t *testing.T) {
	srv, err := New(Config{Workers: 1, QueueDepth: 1, DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status := func(path string) (int, string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]string
		json.NewDecoder(resp.Body).Decode(&m)
		return resp.StatusCode, m["status"]
	}

	if code, st := status("/readyz"); code != http.StatusServiceUnavailable || st != "recovering" {
		t.Fatalf("pre-recovery readyz: %d %q, want 503 recovering", code, st)
	}
	if code, _ := status("/healthz"); code != http.StatusOK {
		t.Fatalf("healthz must be live during recovery, got %d", code)
	}
	if _, err := srv.Recover(); err != nil {
		t.Fatal(err)
	}
	if code, st := status("/readyz"); code != http.StatusOK || st != "ready" {
		t.Fatalf("post-recovery readyz: %d %q", code, st)
	}

	// Saturate: one job occupies the single worker, one fills the queue.
	block := make(chan struct{})
	release := func() { close(block) }
	slow := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return []byte(`{}`), simrun.Status{StopReason: simrun.StopCompleted}, nil
	}
	if _, _, err := srv.mgr.SubmitOpts(jobs.KindSurfaceMC, rescache.Key(strings.Repeat("1", 64)), nil, slow, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.mgr.QueueDepth() > 0 { // wait for the worker to take it
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the blocking job")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, err := srv.mgr.SubmitOpts(jobs.KindSurfaceMC, rescache.Key(strings.Repeat("2", 64)), nil, slow, jobs.SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	if code, st := status("/readyz"); code != http.StatusServiceUnavailable || st != "saturated" {
		t.Fatalf("saturated readyz: %d %q", code, st)
	}
	release()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	if code, st := status("/readyz"); code != http.StatusServiceUnavailable || st != "draining" {
		t.Fatalf("draining readyz: %d %q", code, st)
	}
	if code, _ := status("/healthz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d, want 503", code)
	}
}

// TestSubmitBodyTooLarge checks the request-body bound: an oversized POST is
// refused with 413 before it is buffered, and counted under its own
// rejection reason.
func TestSubmitBodyTooLarge(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1, MaxBodyBytes: 512})
	_ = srv
	big := fmt.Sprintf(`{"kind":"pauli.mc","params":{"qasm":%q}}`,
		strings.Repeat("x", 4096))
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: HTTP %d, want 413", resp.StatusCode)
	}
	if v := scrapeMetric(t, ts, `qisimd_jobs_rejected_total{reason="too-large"}`); v != 1 {
		t.Errorf("too-large rejections = %v, want 1", v)
	}
	// A regular small request still goes through on the same server.
	code, _ := submitRaw(t, ts, smallMC)
	if code != http.StatusAccepted && code != http.StatusOK {
		t.Fatalf("small request after a 413: HTTP %d", code)
	}
}
