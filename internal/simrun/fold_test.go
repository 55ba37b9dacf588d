package simrun

import (
	"context"
	"errors"
	"testing"

	"qisim/internal/simerr"
)

// TestFoldTally pins the fold's event tally and stop decision over shards
// of 2 shots: the guard converges at a 0.5 target over 32k shots at an event
// rate of 0.5, a zero target never converges, a negative event count
// latches convergence off while later counts still add to Events (the
// tally a snapshot carries), and the 1000-shot floor default applies only
// after the budget check, so a shorter run spends its budget. A Fold runs
// under its caller's commit lock, so there is no concurrent case.
func TestFoldTally(t *testing.T) {
	// run folds shard after shard, shard k reporting events(k), until the
	// fold stops the run or cut shards are in, and returns the Final
	// checkpoint state and the Status.
	run := func(t *testing.T, shots, cut int, opt Options, events func(k int) int) (CheckpointState, Status) {
		t.Helper()
		var final CheckpointState
		opt.ShardSize = 2
		opt.Checkpoint = func(st CheckpointState) {
			if st.Final {
				final = st
			}
		}
		f, err := NewFold(shots, opt, func(dst *int, src int) { *dst += src })
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < cut; k++ {
			if f.Add(2, events(k)) {
				break
			}
		}
		_, st := f.Finish(context.Background(), StopDeadline)
		return final, st
	}
	one := func(int) int { return 1 }
	const shots, all = 32_000, 16_000

	t.Run("converges", func(t *testing.T) {
		final, st := run(t, shots, all, Options{TargetRelStdErr: 0.5, MinShots: shots}, one)
		if !st.Converged || st.StopReason != StopConverged || st.Completed != shots {
			t.Fatalf("status %+v, want converged at %d shots", st, shots)
		}
		if final.Shots != shots || final.Events != all || final.NoConverge || final.State != 2*all {
			t.Fatalf("final state %+v, want %d shots, %d events", final, shots, all)
		}
	})
	t.Run("zero-target", func(t *testing.T) {
		if _, st := run(t, shots, all, Options{}, one); st.Converged || st.StopReason != StopCompleted {
			t.Fatalf("status %+v, want completed: a zero target never converges", st)
		}
	})
	t.Run("negative-latch", func(t *testing.T) {
		latch := func(k int) int {
			if k == 0 {
				return -1
			}
			return 1
		}
		final, st := run(t, shots, all, Options{TargetRelStdErr: 0.5, MinShots: 2}, latch)
		if st.Converged || st.StopReason != StopCompleted {
			t.Fatalf("status %+v, want completed: a negative event count latches convergence off", st)
		}
		if !final.NoConverge || final.Events != all-1 {
			t.Fatalf("final state %+v, want the latch set and the %d later events counted", final, all-1)
		}
	})
	t.Run("floor-after-budget", func(t *testing.T) {
		if _, st := run(t, 500, all, Options{TargetRelStdErr: 0.5}, one); st.Converged || st.Completed != 500 {
			t.Fatalf("status %+v, want the 500-shot budget spent under the default floor", st)
		}
		_, err := NewFold(500, Options{TargetRelStdErr: 0.5, MinShots: 1000}, func(*int, int) {})
		if !errors.Is(err, simerr.ErrBudgetInfeasible) {
			t.Fatalf("an explicit floor above the budget: %v, want ErrBudgetInfeasible", err)
		}
	})
	t.Run("cut", func(t *testing.T) {
		final, st := run(t, shots, 3, Options{TargetRelStdErr: 0.5, MinShots: shots}, one)
		if !st.Truncated || st.StopReason != StopDeadline || st.Completed != 6 || final.Shards != 3 {
			t.Fatalf("status %+v, final %+v; want a deadline cut after 3 shards", st, final)
		}
	})
}
