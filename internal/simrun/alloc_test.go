package simrun

import (
	"context"
	"testing"
)

var poolDropAllocs float64

// TestShardMergePathAllocs pins the marginal allocation cost of seeding,
// dispatching and committing one shard through both entry points, so the
// pooled RNG and task (a ~5 KiB Go-1 RNG state plus the task header per
// shard before pooling) cannot quietly erode. Every call uses a fresh top
// seed, so no shard stream is ever seeded twice — the common case for
// Monte-Carlo jobs. The pin measures the *difference* between a 9-shard and
// a 1-shard run, which isolates per-shard cost from the engine's fixed
// per-run overhead and keeps the test robust to unrelated setup changes.
//
// poolDropAllocs is the expected per-shard count of pooled objects that are
// allocated afresh because the pool dropped them; it is zero except under
// the race detector (see race_test.go).
func TestShardMergePathAllocs(t *testing.T) {
	run := func(task *ShardTask) (int, int, error) {
		c := 0
		for i := 0; task.Continue(i); i++ {
			if task.RNG.Float64() < 0.5 {
				c++
			}
		}
		return c, c, nil
	}
	opt := Options{Workers: 1, ShardSize: 64}
	seed := int64(0)
	entries := []struct {
		name string
		exec func(shards int) error
	}{
		{"RunSharded", func(shards int) error {
			seed++
			_, _, err := RunSharded(context.Background(), shards*64, seed, opt, run,
				func(dst *int, src int) { *dst += src })
			return err
		}},
		{"RunWindow", func(shards int) error {
			seed++
			return RunWindow(context.Background(), shards*64, seed, opt, 0, shards, run,
				func(Shard, int, int) error { return nil })
		}},
	}
	for _, e := range entries {
		exec := func(shards int) {
			if err := e.exec(shards); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
		exec(9) // warm the pools and any one-time lazies

		a1 := testing.AllocsPerRun(50, func() { exec(1) })
		a9 := testing.AllocsPerRun(50, func() { exec(9) })
		perShard := (a9 - a1) / 8
		if perShard >= 1+poolDropAllocs {
			t.Fatalf("%s allocates %.2f objects per shard (1-shard run: %.1f, 9-shard run: %.1f); "+
				"shard seeding or the RNG/task pooling has regressed", e.name, perShard, a1, a9)
		}
		t.Logf("%s: %.2f allocations per shard", e.name, perShard)
	}
}
