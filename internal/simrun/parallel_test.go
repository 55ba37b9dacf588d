package simrun

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"qisim/internal/simerr"
)

// countingShard is a reference shard body: it counts "events" (draws below
// p) so engine-level results can be compared across worker counts without
// dragging a physics model into the package tests.
func countingShard(p float64) ShardFunc[int] {
	return func(t *ShardTask) (int, int, error) {
		ev := 0
		for i := 0; t.Continue(i); i++ {
			if t.RNG.Float64() < p {
				ev++
			}
		}
		return ev, ev, nil
	}
}

func addInt(dst *int, src int) { *dst += src }

// TestRunShardedWorkerCountInvariance: the merged result and Status must be
// bit-identical for every worker count, with and without an uneven final
// shard.
func TestRunShardedWorkerCountInvariance(t *testing.T) {
	for _, shots := range []int{1, 100, 1000, 1003} {
		opt := Options{ShardSize: 64}
		opt.Workers = 1
		ref, refStatus, err := RunSharded(context.Background(), shots, 42, opt, countingShard(0.1), addInt)
		if err != nil {
			t.Fatal(err)
		}
		if refStatus.Completed != shots || refStatus.StopReason != StopCompleted {
			t.Fatalf("serial run incomplete: %+v", refStatus)
		}
		for _, w := range []int{0, 2, 3, 4, 7, 16} {
			opt.Workers = w
			got, status, err := RunSharded(context.Background(), shots, 42, opt, countingShard(0.1), addInt)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref || status != refStatus {
				t.Fatalf("shots=%d workers=%d: got (%d,%+v), serial reference (%d,%+v)",
					shots, w, got, status, ref, refStatus)
			}
		}
	}
}

// TestRunShardedConvergenceDeterministic: the convergence early-stop is
// decided over the committed in-order shard prefix, so the converged prefix
// length — and the merged result — must also be worker-count invariant.
func TestRunShardedConvergenceDeterministic(t *testing.T) {
	opt := Options{ShardSize: 50, TargetRelStdErr: 0.1, MinShots: 200, Workers: 1}
	ref, refStatus, err := RunSharded(context.Background(), 100000, 7, opt, countingShard(0.2), addInt)
	if err != nil {
		t.Fatal(err)
	}
	if !refStatus.Converged || refStatus.StopReason != StopConverged {
		t.Fatalf("serial run did not converge: %+v", refStatus)
	}
	if refStatus.Completed >= 100000 || refStatus.Completed < 200 {
		t.Fatalf("implausible converged prefix: %+v", refStatus)
	}
	if refStatus.Completed%50 != 0 {
		t.Fatalf("converged prefix is not whole shards: %+v", refStatus)
	}
	for _, w := range []int{2, 5, 8} {
		opt.Workers = w
		got, status, err := RunSharded(context.Background(), 100000, 7, opt, countingShard(0.2), addInt)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref || status != refStatus {
			t.Fatalf("workers=%d: converged run differs: (%d,%+v) vs (%d,%+v)",
				w, got, status, ref, refStatus)
		}
	}
}

// TestRunShardedNoEventsNeverConverges: estimators reporting negative event
// counts opt out of the binomial guard; the run must exhaust its budget.
func TestRunShardedNoEventsNeverConverges(t *testing.T) {
	run := func(t_ *ShardTask) (int, int, error) {
		n := 0
		for i := 0; t_.Continue(i); i++ {
			_ = t_.RNG.Float64()
			n++
		}
		return n, -1, nil
	}
	opt := Options{ShardSize: 100, TargetRelStdErr: 0.5, MinShots: 100, Workers: 3}
	got, status, err := RunSharded(context.Background(), 2000, 1, opt, run, addInt)
	if err != nil {
		t.Fatal(err)
	}
	if status.Converged || status.StopReason != StopCompleted || got != 2000 {
		t.Fatalf("no-event run must complete its budget: got %d, %+v", got, status)
	}
}

// TestRunShardedPreCanceled: an already-canceled context yields a flagged,
// empty-prefix partial result, a typed ErrInterrupted from Status.Err, and
// no goroutine leak.
func TestRunShardedPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	before := runtime.NumGoroutine()
	got, status, err := RunSharded(ctx, 10000, 3, Options{ShardSize: 100, Workers: 4},
		countingShard(0.1), addInt)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Truncated || status.StopReason != StopCanceled {
		t.Fatalf("want canceled truncation, got %+v", status)
	}
	if got != 0 || status.Completed != 0 {
		t.Fatalf("pre-canceled run must merge zero shards, got %d (%+v)", got, status)
	}
	if !errors.Is(status.Err(), simerr.ErrInterrupted) {
		t.Fatalf("Status.Err() = %v, want ErrInterrupted", status.Err())
	}
	waitForGoroutines(t, before)
}

// TestRunShardedCancelMidRun: cancelling while the pool is working keeps a
// whole-shard prefix (Completed is a multiple of ShardSize), flags the
// result Truncated, and leaks no goroutines. The prefix itself is
// reproducible: rerunning with the budget pinned to the prefix regenerates
// the same merged value bit-exactly.
func TestRunShardedCancelMidRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var once sync.Once
	slow := func(task *ShardTask) (int, int, error) {
		ev := 0
		for i := 0; task.Continue(i); i++ {
			if task.RNG.Float64() < 0.1 {
				ev++
			}
			// First shard to pass the halfway point pulls the plug.
			if task.Index > 2 && i == task.N/2 {
				once.Do(cancel)
			}
		}
		return ev, ev, nil
	}
	before := runtime.NumGoroutine()
	got, status, err := RunSharded(ctx, 1<<20, 99, Options{ShardSize: 256, Workers: 4, CheckEvery: 16}, slow, addInt)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Truncated || status.StopReason != StopCanceled {
		t.Fatalf("want canceled truncation, got %+v", status)
	}
	if status.Completed >= 1<<20 {
		t.Fatalf("cancelled run completed the whole budget: %+v", status)
	}
	if status.Completed%256 != 0 {
		t.Fatalf("partial result is not a whole-shard prefix: %+v", status)
	}
	waitForGoroutines(t, before)

	// Determinism of the partial: replay exactly the kept prefix serially.
	if status.Completed > 0 {
		replay, rStatus, err := RunSharded(context.Background(), status.Completed, 99,
			Options{ShardSize: 256, Workers: 1}, countingShard(0.1), addInt)
		if err != nil {
			t.Fatal(err)
		}
		if replay != got || rStatus.Completed != status.Completed {
			t.Fatalf("partial result not reproducible: kept %d, replay %d", got, replay)
		}
	}
}

// TestRunShardedDeadline: a deadline stop is reported as such.
func TestRunShardedDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	slow := func(task *ShardTask) (int, int, error) {
		for i := 0; task.Continue(i); i++ {
			time.Sleep(50 * time.Microsecond)
		}
		return 0, 0, nil
	}
	_, status, err := RunSharded(ctx, 1<<20, 1, Options{ShardSize: 1 << 10, Workers: 2, CheckEvery: 1}, slow, addInt)
	if err != nil {
		t.Fatal(err)
	}
	if !status.Truncated || status.StopReason != StopDeadline {
		t.Fatalf("want deadline truncation, got %+v", status)
	}
}

// TestRunShardedShardError: a shard error aborts the run with the error of
// the LOWEST-index failing shard (deterministic pick under any scheduling).
func TestRunShardedShardError(t *testing.T) {
	boom := func(task *ShardTask) (int, int, error) {
		if task.Index >= 3 {
			return 0, 0, simerr.Numericalf("shard %d corrupted", task.Index)
		}
		return 0, 0, nil
	}
	_, _, err := RunSharded(context.Background(), 1000, 1, Options{ShardSize: 100, Workers: 4}, boom, addInt)
	if !errors.Is(err, simerr.ErrNumerical) {
		t.Fatalf("want ErrNumerical, got %v", err)
	}
	if want := "shard 3 corrupted"; err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("want lowest failing shard's error (%q), got %v", want, err)
	}
}

// TestRunShardedValidation: option validation errors surface before any
// shard runs.
func TestRunShardedValidation(t *testing.T) {
	cases := []Options{
		{Workers: -1},
		{ShardSize: -5},
	}
	for _, opt := range cases {
		_, _, err := RunSharded(context.Background(), 100, 1, opt, countingShard(0.1), addInt)
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("opt %+v: want ErrInvalidConfig, got %v", opt, err)
		}
	}
	if _, _, err := RunSharded(context.Background(), 0, 1, Options{}, countingShard(0.1), addInt); !errors.Is(err, simerr.ErrInvalidConfig) {
		t.Fatalf("zero budget: want ErrInvalidConfig, got %v", err)
	}
	if _, _, err := RunSharded(context.Background(), 100, 1, Options{MinShots: 500, TargetRelStdErr: 0.1},
		countingShard(0.1), addInt); !errors.Is(err, simerr.ErrBudgetInfeasible) {
		t.Fatalf("infeasible floor: want ErrBudgetInfeasible, got %v", err)
	}
}

// TestShardWorkerCombinationsFuzz is the short shard-size/worker-count fuzz
// the race CI job leans on: every combination must agree with the
// fixed-layout serial reference and finish without data races.
func TestShardWorkerCombinationsFuzz(t *testing.T) {
	const shots = 700
	for _, size := range []int{1, 7, 64, 256, 701} {
		opt := Options{ShardSize: size, Workers: 1}
		ref, refStatus, err := RunSharded(context.Background(), shots, 11, opt, countingShard(0.3), addInt)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{2, 3, 5, 8, 13} {
			opt.Workers = w
			got, status, err := RunSharded(context.Background(), shots, 11, opt, countingShard(0.3), addInt)
			if err != nil {
				t.Fatal(err)
			}
			if got != ref || status != refStatus {
				t.Fatalf("size=%d workers=%d: (%d,%+v) != serial (%d,%+v)",
					size, w, got, status, ref, refStatus)
			}
		}
	}
}

// waitForGoroutines polls for the goroutine count to drop back to (or
// below) the pre-run baseline, failing after a grace period — the
// no-goroutine-leak check of the cancellation scenarios.
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
