package simrun

import (
	"context"

	"qisim/internal/obs"
	"qisim/internal/simerr"
)

// PlanShards returns the number of shards a budget partitions into at the
// given shard size — the shard geometry distributed executors must agree on
// before splitting a run into windows.
func PlanShards(budget, size int) int {
	if size <= 0 {
		size = DefaultShardSize
	}
	return (budget + size - 1) / size
}

// RunWindow executes shards [start, end) of the shard plan for (shots,
// seed, opt.ShardSize) — the same plan RunSharded executes in full — and
// emits each shard's result in strictly ascending shard index order. It is
// the worker-side primitive of distributed execution: a coordinator that
// folds the emitted per-shard results of adjacent windows in global shard
// order reproduces RunSharded's accumulator fold bit-exactly, because each
// shard's result depends only on (seed, shard index) and the fold sequence
// is identical.
//
// A window runs on RunSharded's own shard loop, with emit as its commit
// step. Unlike RunSharded there is no convergence guard, no checkpointing
// and no progress here: a window is a dumb slice of work; stop decisions
// belong to the coordinator, which sees the global committed prefix.
// opt.Workers parallelises within the window (in-order emit preserved); an
// emit error stops the window and is returned; cancellation surfaces as a
// typed ErrInterrupted — a window is all-or-nothing, the caller reports
// nothing for an interrupted window and the lease expiry path re-runs it
// elsewhere.
func RunWindow[R any](ctx context.Context, shots int, seed int64, opt Options,
	start, end int, run ShardFunc[R], emit func(sh Shard, res R, events int) error) error {

	if err := engineDefaults(shots, &opt); err != nil {
		return err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	shards := shardPlan(shots, opt.ShardSize, seed)
	if start < 0 || end > len(shards) || start > end {
		return simerr.Invalidf("simrun: window [%d,%d) outside the %d-shard plan", start, end, len(shards))
	}
	if start == end {
		return nil
	}

	ctx, winSpan := obs.StartSpan(ctx, "mc.window",
		obs.Int("start", start), obs.Int("end", end), obs.Int("shard_size", opt.ShardSize))
	defer winSpan.End()

	var emitErr error
	frontier, err := runShards(ctx, shards, start, end, poolSize(opt.Workers, end-start), opt.CheckEvery, run,
		func(l *shardLoop[R]) {
			for l.ready() {
				if emitErr = emit(l.take()); emitErr != nil {
					l.halt()
					return
				}
			}
		})
	if err != nil {
		return err
	}
	if emitErr != nil {
		return emitErr
	}
	if frontier < end {
		// Cancellation cut the window short: all-or-nothing, typed.
		winSpan.SetAttr(obs.Int("emitted", frontier-start))
		return simerr.Interruptedf("simrun: window [%d,%d) interrupted after %d shards (%v)",
			start, end, frontier-start, ctx.Err())
	}
	winSpan.SetAttr(obs.Int("emitted", end-start))
	return nil
}
