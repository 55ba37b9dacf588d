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
// Monte-Carlo jobs. The pin measures the *difference* between a longer and
// a shorter run, which isolates per-shard cost from the engine's fixed
// per-run overhead and keeps the test robust to unrelated setup changes.
// Two pairs are measured: 1 against 9 shards of 64 shots, and 200 against
// 400 shards of 512 shots, whose shard indices, shot and event counts pass
// 99, so an untraced run that formatted span attributes would allocate
// for each of them (strconv serves 0–99 from a static table).
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
	opt := Options{Workers: 1}
	seed := int64(0)
	entries := []struct {
		name string
		exec func(shards int) error
	}{
		{"RunSharded", func(shards int) error {
			seed++
			_, _, err := RunSharded(context.Background(), shards*opt.ShardSize, seed, opt, run,
				func(dst *int, src int) { *dst += src })
			return err
		}},
		{"RunWindow", func(shards int) error {
			seed++
			return RunWindow(context.Background(), shards*opt.ShardSize, seed, opt, 0, shards, run,
				func(Shard, int, int) error { return nil })
		}},
	}
	for _, e := range entries {
		exec := func(shards int) {
			if err := e.exec(shards); err != nil {
				t.Fatalf("%s: %v", e.name, err)
			}
		}
		for _, p := range []struct{ shardSize, short, long, runs int }{
			{64, 1, 9, 50},
			{512, 200, 400, 5},
		} {
			opt.ShardSize = p.shardSize
			exec(p.long) // warm the pools and any one-time lazies

			short := testing.AllocsPerRun(p.runs, func() { exec(p.short) })
			long := testing.AllocsPerRun(p.runs, func() { exec(p.long) })
			perShard := (long - short) / float64(p.long-p.short)
			if perShard >= 1+poolDropAllocs {
				t.Fatalf("%s allocates %.2f objects per %d-shot shard (%d-shard run: %.1f, %d-shard run: %.1f); "+
					"shard seeding, the RNG/task pooling or the untraced span path has regressed",
					e.name, perShard, p.shardSize, p.short, short, p.long, long)
			}
			t.Logf("%s: %.2f allocations per %d-shot shard", e.name, perShard, p.shardSize)
		}
	}
}
