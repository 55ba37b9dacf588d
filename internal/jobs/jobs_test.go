package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"qisim/internal/rescache"
	"qisim/internal/simerr"
	"qisim/internal/simrun"
)

func testKey(t *testing.T, seed int64) rescache.Key {
	t.Helper()
	k, err := rescache.KeyFor("test.kind", map[string]any{"n": seed}, seed, 512)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// countingRunner returns a runner producing a deterministic body and
// recording how many times it executed.
func countingRunner(execs *atomic.Int64, body string) Runner {
	return func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		execs.Add(1)
		progress(10, 10)
		return []byte(body), simrun.Status{Requested: 10, Completed: 10, StopReason: simrun.StopCompleted}, nil
	}
}

// drainManager shuts m down and fails the test on a hung pool.
func drainManager(t *testing.T, m *Manager) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// waitForGoroutines is the no-leak check (same contract as the
// internal/simrun helper): the goroutine count must return to the pre-run
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

// TestSubmitRunsAndCaches: the basic lifecycle — queued, executed, done,
// result cached, and a resubmission served from the cache without a second
// execution.
func TestSubmitRunsAndCaches(t *testing.T) {
	cache := rescache.New(16)
	m := NewManager(Config{Workers: 2, QueueDepth: 8, Cache: cache})
	m.Start()
	defer drainManager(t, m)

	var execs atomic.Int64
	key := testKey(t, 1)
	snap, outcome, err := m.SubmitOpts(KindSurfaceMC, key, nil, countingRunner(&execs, `{"rate":0.5}`), SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("submit: %v, outcome %v", err, outcome)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateDone || string(final.Result) != `{"rate":0.5}` {
		t.Fatalf("final snapshot %+v", final)
	}
	if final.Status == nil || final.Status.Completed != 10 {
		t.Fatalf("status not recorded: %+v", final.Status)
	}
	if final.Progress.Completed != 10 || final.Progress.Requested != 10 {
		t.Fatalf("progress %+v", final.Progress)
	}

	// Resubmit: cache hit, no second execution, byte-identical body.
	snap2, outcome2, err := m.SubmitOpts(KindSurfaceMC, key, nil, countingRunner(&execs, `{"rate":0.5}`), SubmitOptions{})
	if err != nil || outcome2 != OutcomeCached {
		t.Fatalf("resubmit: %v, outcome %v", err, outcome2)
	}
	if !snap2.Cached || snap2.State != StateDone || string(snap2.Result) != `{"rate":0.5}` {
		t.Fatalf("cached snapshot %+v", snap2)
	}
	if snap2.ID == snap.ID {
		t.Fatal("cached submission reused the original job record")
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("runner executed %d times, want 1", got)
	}
}

// TestConcurrentDuplicatesCoalesce is the singleflight contract: N
// concurrent submissions of the same key produce exactly one computation,
// and every submitter lands on the same job ID.
func TestConcurrentDuplicatesCoalesce(t *testing.T) {
	m := NewManager(Config{Workers: 2, QueueDepth: 8, Cache: rescache.New(16)})
	m.Start()
	defer drainManager(t, m)

	var execs atomic.Int64
	release := make(chan struct{})
	slow := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		execs.Add(1)
		<-release
		return []byte(`{"v":1}`), simrun.Status{Requested: 1, Completed: 1, StopReason: simrun.StopCompleted}, nil
	}
	key := testKey(t, 2)
	first, outcome, err := m.SubmitOpts(KindPauliMC, key, nil, slow, SubmitOptions{})
	if err != nil || outcome != OutcomeQueued {
		t.Fatalf("first submit: %v, %v", err, outcome)
	}

	const dupes = 16
	var wg sync.WaitGroup
	ids := make([]string, dupes)
	outcomes := make([]Outcome, dupes)
	for i := 0; i < dupes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			snap, oc, err := m.SubmitOpts(KindPauliMC, key, nil, slow, SubmitOptions{})
			if err != nil {
				t.Errorf("dup submit: %v", err)
				return
			}
			ids[i], outcomes[i] = snap.ID, oc
		}(i)
	}
	wg.Wait()
	close(release)
	for i := 0; i < dupes; i++ {
		if ids[i] != first.ID {
			t.Errorf("dup %d landed on job %s, want %s", i, ids[i], first.ID)
		}
		if outcomes[i] != OutcomeCoalesced {
			t.Errorf("dup %d outcome %v, want coalesced", i, outcomes[i])
		}
	}
	if _, err := m.Wait(context.Background(), first.ID); err != nil {
		t.Fatal(err)
	}
	if got := execs.Load(); got != 1 {
		t.Fatalf("coalesced submissions ran %d computations, want 1", got)
	}
}

// TestQueueFull: the bounded queue refuses overload with ErrQueueFull and
// rolls the job record back.
func TestQueueFull(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 1})
	m.Start()
	defer drainManager(t, m)

	release := make(chan struct{})
	defer close(release)
	block := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return []byte(`{}`), simrun.Status{StopReason: simrun.StopCompleted}, nil
	}
	// First occupies the worker, second the queue slot; distinct keys so
	// nothing coalesces.
	if _, _, err := m.SubmitOpts(KindReadoutMC, testKey(t, 10), nil, block, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	// Give the worker a moment to pick up the first job so the queue slot
	// frees deterministically enough for the depth-1 fill below.
	deadline := time.Now().Add(time.Second)
	for m.QueueDepth() != 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if _, _, err := m.SubmitOpts(KindReadoutMC, testKey(t, 11), nil, block, SubmitOptions{}); err != nil {
		t.Fatal(err)
	}
	_, _, err := m.SubmitOpts(KindReadoutMC, testKey(t, 12), nil, block, SubmitOptions{})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overload error = %v, want ErrQueueFull", err)
	}
	// The rolled-back record must not be retrievable or in flight.
	if m.InFlight() != 2 {
		t.Fatalf("inflight = %d after refused submit, want 2", m.InFlight())
	}
}

// TestDrainTruncatesInFlight: draining cancels the in-flight job, which
// lands done with a Truncated partial (via the simrun contract) and is NOT
// cached; post-drain submissions are refused; the pool leaks no goroutines.
func TestDrainTruncatesInFlight(t *testing.T) {
	baseline := runtime.NumGoroutine()
	cache := rescache.New(16)
	m := NewManager(Config{Workers: 1, QueueDepth: 4, Cache: cache})
	m.Start()

	started := make(chan struct{})
	key := testKey(t, 20)
	runner := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		close(started)
		<-ctx.Done() // simulate the engine observing cancellation
		st := simrun.Status{Requested: 100, Completed: 40, Truncated: true, StopReason: simrun.StopCanceled}
		body, _ := json.Marshal(map[string]any{"status": st})
		return body, st, nil
	}
	snap, _, err := m.SubmitOpts(KindSurfaceMC, key, nil, runner, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	final, ok := m.Get(snap.ID)
	if !ok {
		t.Fatal("job record lost after drain")
	}
	if final.State != StateDone || final.Status == nil || !final.Status.Truncated {
		t.Fatalf("drained job not a flagged partial: %+v", final)
	}
	var parsed struct {
		Status simrun.Status `json:"status"`
	}
	if err := json.Unmarshal(final.Result, &parsed); err != nil || !parsed.Status.Truncated {
		t.Fatalf("partial body not flagged truncated: %s (%v)", final.Result, err)
	}
	if cache.Contains(key) {
		t.Fatal("truncated partial leaked into the cache")
	}
	if _, _, err := m.SubmitOpts(KindSurfaceMC, testKey(t, 21), nil, runner, SubmitOptions{}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	waitForGoroutines(t, baseline)
}

// TestFailedJobCarriesClass: a runner failure lands the job in failed state
// with its simerr class, and nothing reaches the cache.
func TestFailedJobCarriesClass(t *testing.T) {
	cache := rescache.New(16)
	m := NewManager(Config{Workers: 1, Cache: cache})
	m.Start()
	defer drainManager(t, m)

	key := testKey(t, 30)
	fail := func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
		return nil, simrun.Status{}, fmt.Errorf("bad distance: %w", simerr.ErrInvalidConfig)
	}
	snap, _, err := m.SubmitOpts(KindSurfaceMC, key, nil, fail, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.ErrorClass != "invalid-config" || final.Error == "" {
		t.Fatalf("failed snapshot %+v", final)
	}
	if cache.Len() != 0 {
		t.Fatal("failed job reached the cache")
	}
	// The key is free again: a corrected resubmission enqueues fresh.
	if _, outcome, err := m.SubmitOpts(KindSurfaceMC, key, nil, fail, SubmitOptions{}); err != nil || outcome != OutcomeQueued {
		t.Fatalf("resubmit after failure: %v, %v", err, outcome)
	}
}

// TestPanickingRunnerBecomesTypedFailure: a panic inside a runner must not
// kill the worker — it surfaces as a failed job with a typed class.
func TestPanickingRunnerBecomesTypedFailure(t *testing.T) {
	m := NewManager(Config{Workers: 1})
	m.Start()
	defer drainManager(t, m)

	snap, _, err := m.SubmitOpts(KindReadoutMC, testKey(t, 40), nil,
		func(ctx context.Context, progress func(int, int)) ([]byte, simrun.Status, error) {
			panic("boom")
		}, SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	final, err := m.Wait(context.Background(), snap.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != StateFailed || final.ErrorClass != "invalid-config" {
		t.Fatalf("panicked job snapshot %+v", final)
	}
	// The worker survived: another job still executes.
	var execs atomic.Int64
	snap2, _, err := m.SubmitOpts(KindReadoutMC, testKey(t, 41), nil, countingRunner(&execs, `{}`), SubmitOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if final2, err := m.Wait(context.Background(), snap2.ID); err != nil || final2.State != StateDone {
		t.Fatalf("worker dead after panic: %+v, %v", final2, err)
	}
}

// TestRecordEviction: finished records above MaxRecords are evicted oldest
// first; in-flight records survive.
func TestRecordEviction(t *testing.T) {
	m := NewManager(Config{Workers: 1, QueueDepth: 16, MaxRecords: 3})
	m.Start()
	defer drainManager(t, m)

	var execs atomic.Int64
	var first Snapshot
	for i := 0; i < 6; i++ {
		snap, _, err := m.SubmitOpts(KindSurfaceMC, testKey(t, 100+int64(i)), nil, countingRunner(&execs, `{}`), SubmitOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = snap
		}
		if _, err := m.Wait(context.Background(), snap.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := m.Get(first.ID); ok {
		t.Fatal("oldest finished record survived past MaxRecords")
	}
}
