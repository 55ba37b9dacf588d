package simrun

import (
	"context"
	"errors"
	"testing"

	"qisim/internal/simerr"
)

// windowShardFunc is a deterministic shard function whose result encodes
// the shard's identity so reordering or replay is detectable.
func windowShardFunc(t *ShardTask) (int, int, error) {
	sum := 0
	for s := 0; t.Continue(s); s++ {
		sum += int(t.RNG.Int63() % 1000)
	}
	return sum + t.Index*1_000_000, 0, nil
}

func TestRunWindowMatchesFullPlanFold(t *testing.T) {
	const shots, seed, size = 2000, 7, 128
	opt := Options{ShardSize: size, Workers: 1}

	full, st, err := RunSharded(context.Background(), shots, seed, opt, windowShardFunc,
		func(dst *int, src int) { *dst += src })
	if err != nil || st.Completed != shots {
		t.Fatalf("full run: err=%v status=%+v", err, st)
	}

	n := PlanShards(shots, size)
	for _, workers := range []int{1, 4} {
		// Split the plan into two windows at an arbitrary boundary and fold
		// emissions in global order: must equal the full-plan fold.
		sumAll := 0
		prev := -1
		for _, w := range [][2]int{{0, n / 2}, {n / 2, n}} {
			wo := opt
			wo.Workers = workers
			err := RunWindow(context.Background(), shots, seed, wo, w[0], w[1],
				windowShardFunc, func(sh Shard, res, events int) error {
					if sh.Index != prev+1 {
						t.Fatalf("out-of-order emit: shard %d after %d", sh.Index, prev)
					}
					prev = sh.Index
					sumAll += res
					return nil
				})
			if err != nil {
				t.Fatalf("window %v (workers=%d): %v", w, workers, err)
			}
		}
		if sumAll != full {
			t.Fatalf("workers=%d: window fold %d != full fold %d", workers, sumAll, full)
		}
	}
}

func TestRunWindowValidatesRange(t *testing.T) {
	opt := Options{ShardSize: 128}
	emit := func(Shard, int, int) error { return nil }
	for _, w := range [][2]int{{-1, 2}, {0, 999}, {3, 2}} {
		err := RunWindow(context.Background(), 1000, 1, opt, w[0], w[1], windowShardFunc, emit)
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Fatalf("window %v: want ErrInvalidConfig, got %v", w, err)
		}
	}
	// Empty window is a no-op, not an error.
	if err := RunWindow(context.Background(), 1000, 1, opt, 2, 2, windowShardFunc, emit); err != nil {
		t.Fatalf("empty window: %v", err)
	}
}

func TestRunWindowCancellationIsTyped(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := Options{ShardSize: 64, CheckEvery: 1}
	err := RunWindow(ctx, 10_000, 3, opt, 0, 4, windowShardFunc,
		func(Shard, int, int) error { return nil })
	if !errors.Is(err, simerr.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted for a canceled window, got %v", err)
	}
}

func TestRunWindowSurfacesEmitError(t *testing.T) {
	boom := errors.New("sink full")
	err := RunWindow(context.Background(), 2000, 7, Options{ShardSize: 128}, 0, 3,
		windowShardFunc, func(sh Shard, res, events int) error {
			if sh.Index == 1 {
				return boom
			}
			return nil
		})
	if !errors.Is(err, boom) {
		t.Fatalf("want emit error surfaced, got %v", err)
	}
}

func TestPlanShardsAndShots(t *testing.T) {
	if got := PlanShards(1000, 128); got != 8 {
		t.Fatalf("PlanShards(1000,128) = %d, want 8", got)
	}
	if got := shardShots(1000, 128, 8); got != 1000 {
		t.Fatalf("shardShots full prefix = %d, want 1000", got)
	}
	if got := shardShots(1000, 128, 3); got != 384 {
		t.Fatalf("shardShots(3) = %d, want 384", got)
	}
	if got := PlanShards(1000, 0); got != PlanShards(1000, DefaultShardSize) {
		t.Fatalf("zero size must default: got %d", got)
	}
}
