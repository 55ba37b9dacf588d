package simrun

import (
	"context"
	"errors"
	"math"
	"testing"

	"qisim/internal/simerr"
)

// The tests below pin the run guard RunSharded applies on top of its shard
// loop: the shot budget, option validation and the binomial convergence
// stop.

// TestGuardFullBudget: with no early-stop option set, a run executes its
// whole budget, is neither truncated nor converged, and reports no error.
func TestGuardFullBudget(t *testing.T) {
	_, st, err := RunSharded(context.Background(), 1000, 1, Options{}, countingShard(0.1), addInt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Requested != 1000 || st.Completed != 1000 || st.Truncated || st.Converged || st.StopReason != StopCompleted {
		t.Fatalf("full budget: status=%+v", st)
	}
	if st.Err() != nil {
		t.Fatalf("completed run must not report an error, got %v", st.Err())
	}
}

// TestGuardInvalidOptions: a non-positive budget and a negative or NaN
// convergence target are rejected as ErrInvalidConfig before any shard
// runs.
func TestGuardInvalidOptions(t *testing.T) {
	cases := []struct {
		shots int
		opt   Options
	}{
		{0, Options{}},
		{-5, Options{}},
		{100, Options{TargetRelStdErr: -0.1}},
		{100, Options{TargetRelStdErr: math.NaN()}},
	}
	for _, c := range cases {
		ran := false
		body := func(t_ *ShardTask) (int, int, error) {
			ran = true
			return 0, 0, nil
		}
		_, _, err := RunSharded(context.Background(), c.shots, 1, c.opt, body, addInt)
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("shots=%d opt=%+v: want ErrInvalidConfig, got %v", c.shots, c.opt, err)
		}
		if ran {
			t.Fatalf("shots=%d opt=%+v: a shard ran despite invalid options", c.shots, c.opt)
		}
	}
}

// TestGuardZeroEventsNeverConverges: a run that observes zero events has no
// defined relative error, so the convergence target never fires and the run
// uses its full budget.
func TestGuardZeroEventsNeverConverges(t *testing.T) {
	run := func(t_ *ShardTask) (int, int, error) {
		n := 0
		for i := 0; t_.Continue(i); i++ {
			n++
		}
		return n, 0, nil
	}
	opt := Options{TargetRelStdErr: 0.1, MinShots: 100, CheckEvery: 100, ShardSize: 100}
	got, st, err := RunSharded(context.Background(), 50_000, 1, opt, run, addInt)
	if err != nil {
		t.Fatal(err)
	}
	if st.Converged || st.StopReason != StopCompleted || st.Completed != 50_000 || got != 50_000 {
		t.Fatalf("zero-event run must use the full budget: got %d, %+v", got, st)
	}
}
