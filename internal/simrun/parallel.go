package simrun

import (
	"context"
	"encoding/json"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"qisim/internal/obs"
	"qisim/internal/simerr"
)

// Tally is the locked cross-shard event counter of the parallel engine. The
// pool aggregates per-shard (shots, events) pairs into it, and the engine
// runs the convergence test over the tally's committed totals at shard
// boundaries. Its methods are safe for concurrent use.
type Tally struct {
	mu     sync.Mutex
	shots  int
	events int
	// noConverge latches when a consumer reports a negative event count,
	// meaning "this estimator has no binomial convergence statistic".
	noConverge bool
}

// Add accumulates one shard's completed shots and observed events. A
// negative event count disables convergence for the whole run (the
// estimator exposes no binomial statistic).
func (t *Tally) Add(shots, events int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shots += shots
	if events < 0 {
		t.noConverge = true
		return
	}
	t.events += events
}

// State returns the committed totals plus the no-convergence latch — the
// triple a checkpoint must capture to restore the tally exactly.
func (t *Tally) State() (shots, events int, noConverge bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.shots, t.events, t.noConverge
}

// Converged reports whether the committed totals satisfy the binomial
// convergence guard: at least minShots shots and a relative standard error
// of the event rate at or below target. Always false when target <= 0 or
// when any consumer disabled convergence with a negative event count.
func (t *Tally) Converged(target float64, minShots int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if target <= 0 || t.noConverge || t.shots < minShots {
		return false
	}
	return binomialConverged(t.events, t.shots, target)
}

// ShardTask is the per-shard execution context handed to a ShardFunc. It
// bundles the shard geometry, the shard's private deterministic RNG stream,
// and the cancellation poll. A ShardTask is owned by exactly one worker
// goroutine and must not escape the ShardFunc invocation.
type ShardTask struct {
	Shard
	// RNG is the shard's private stream, seeded with Shard.Seed. Every
	// random draw of the shard MUST come from this stream (and only this
	// stream) or cross-worker determinism is lost.
	RNG *rand.Rand

	ctx         context.Context
	every       int
	interrupted bool
}

// taskPool recycles ShardTask headers; tasks must not escape the ShardFunc
// invocation (see ShardTask), so the engine can reclaim them immediately.
var taskPool = sync.Pool{New: func() any { return new(ShardTask) }}

// NewShardTask builds a standalone shard task for tests and benchmarks that
// drive a ShardFunc outside the engine. Its RNG is seeded exactly as the
// engine seeds a shard's stream. A checkEvery <= 0 defaults to the engine's
// 256-shot cancellation poll interval.
func NewShardTask(ctx context.Context, sh Shard, checkEvery int) *ShardTask {
	if ctx == nil {
		ctx = context.Background()
	}
	if checkEvery <= 0 {
		checkEvery = 256
	}
	return &ShardTask{
		Shard: sh,
		RNG:   shardRNG(sh.Seed),
		ctx:   ctx,
		every: checkEvery,
	}
}

// Continue reports whether local shot i (0-based) should run: false once the
// shard's N shots are done or — polled every CheckEvery shots — the context
// is cancelled. An interrupted shard is discarded wholesale by the engine
// (the merged result only ever contains complete shards), so consumers do
// not need to flag partial shard state themselves.
func (t *ShardTask) Continue(i int) bool {
	if t.interrupted || i >= t.N {
		return false
	}
	if i > 0 && i%t.every == 0 && t.ctx.Err() != nil {
		t.interrupted = true
		return false
	}
	return true
}

// Context returns the shard's context: it carries the engine's cancellation
// signal plus — when tracing is enabled — the shard's span, so a ShardFunc
// can open child spans with obs.StartSpan (the scalability sweep opens one
// per design point). The context must not outlive the ShardFunc invocation.
func (t *ShardTask) Context() context.Context { return t.ctx }

// GlobalShot maps a local loop index to the run-global shot index.
func (t *ShardTask) GlobalShot(i int) int { return t.Start + i }

// ShardFunc runs one shard to completion and returns the shard's partial
// result plus its event count for the convergence guard (negative = this
// estimator has no binomial statistic). The function must be pure given
// (Shard, RNG): no shared mutable state, no RNG draws outside t.RNG.
type ShardFunc[R any] func(t *ShardTask) (R, int, error)

// MergeFunc folds one shard's partial result into the accumulator. The
// engine calls it in strictly ascending shard order, so non-commutative
// accumulation (floating-point sums, appends) is still deterministic.
type MergeFunc[R any] func(dst *R, src R)

// shardRecord holds one shard's outcome until the deterministic in-order
// commit.
type shardRecord[R any] struct {
	res    R
	events int
	done   bool
	err    error
}

// shardLoop is the commit-side view of the engine's one dispatch/execute/
// in-order-commit loop (runShards), which RunSharded and RunWindow share.
// Completed shards park here until every lower shard has completed; the
// commit step then takes them off the contiguous frontier in strictly
// ascending shard order, so completion order never reaches the caller.
type shardLoop[R any] struct {
	plan     []Shard
	start    int              // first shard of the run
	recs     []shardRecord[R] // recs[i-start] holds shard i until taken
	frontier int              // next shard awaiting commit
	stopAt   int              // shards >= stopAt are never dispatched or taken
}

// ready reports whether the shard at the frontier has completed and may be
// taken.
func (l *shardLoop[R]) ready() bool {
	return l.frontier < l.stopAt && l.recs[l.frontier-l.start].done
}

// take hands out the ready frontier shard and advances the frontier past it.
func (l *shardLoop[R]) take() (Shard, R, int) {
	r := &l.recs[l.frontier-l.start]
	sh, res, events := l.plan[l.frontier], r.res, r.events
	*r = shardRecord[R]{done: true} // release the shard's result
	l.frontier++
	return sh, res, events
}

// halt ends the run at the frontier: no later shard is dispatched or taken.
func (l *shardLoop[R]) halt() { l.stopAt = l.frontier }

// poolSize is the worker count for a run of n shards: workers, or one per
// GOMAXPROCS when 0, and never more than n.
func poolSize(workers, n int) int {
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	return workers
}

// runShards executes shards [start, end) of plan on workers goroutines
// (workers <= 1: inline, the serial reference every worker count must
// reproduce), each shard on a pooled ShardTask and RNG under its own
// "shard" span. Whenever the frontier shard completes, commit runs with the
// loop's lock held and takes what is ready. Cancellation stops dispatch and
// discards interrupted shards, which commit never sees. runShards returns
// the committed frontier and the error of the lowest-index failing shard
// (a deterministic pick under any scheduling).
//
// Reentrancy: commit and everything it calls out to (Progress, Checkpoint,
// the tracer) run under the loop's lock — a slow callback slows commits but
// can never deadlock the loop (workers finish their current shard and queue
// on the lock; nothing the loop holds is required by the callbacks) and can
// never reorder the fold, which happened before the callback fired. The
// tracer's own lock is leaf-level: it is never held while acquiring the
// loop's.
func runShards[R any](ctx context.Context, plan []Shard, start, end, workers, checkEvery int,
	run ShardFunc[R], commit func(l *shardLoop[R])) (int, error) {

	l := &shardLoop[R]{plan: plan, start: start, recs: make([]shardRecord[R], end-start),
		frontier: start, stopAt: end}
	var mu sync.Mutex
	var next atomic.Int64 // next shard to dispatch
	next.Store(int64(start))

	worker := func() {
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			mu.Lock()
			stop := i >= l.stopAt
			mu.Unlock()
			if stop {
				return
			}
			// The shard span's context doubles as the shard's cancellation
			// context: context.WithValue preserves Done(), so Continue's
			// polling is unchanged whether tracing is on or off.
			shardCtx, shardSpan := obs.StartSpan(ctx, "shard",
				obs.Int("shard", i), obs.Int("shots", plan[i].N))
			rng := shardRNG(plan[i].Seed)
			t := taskPool.Get().(*ShardTask)
			*t = ShardTask{
				Shard: plan[i],
				RNG:   rng,
				ctx:   shardCtx,
				every: checkEvery,
			}
			res, events, err := run(t)
			interrupted := t.interrupted
			*t = ShardTask{}
			taskPool.Put(t)
			rngPool.Put(rng)
			if interrupted {
				shardSpan.SetAttr(obs.Bool("interrupted", true))
			} else if err == nil && events >= 0 {
				shardSpan.SetAttr(obs.Int("events", events))
			}
			shardSpan.End()
			mu.Lock()
			if err != nil {
				l.recs[i-start].err = err
			} else if !interrupted {
				l.recs[i-start] = shardRecord[R]{res: res, events: events, done: true}
				if l.ready() {
					commit(l)
				}
			}
			mu.Unlock()
		}
	}

	if workers <= 1 {
		worker()
	} else {
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				worker()
			}()
		}
		wg.Wait()
	}

	for i := range l.recs {
		if l.recs[i].err != nil {
			return l.frontier, l.recs[i].err
		}
	}
	return l.frontier, nil
}

// engineDefaults validates opt against a requested shot budget, fills in
// the engine's CheckEvery and ShardSize defaults, and returns the effective
// budget (shots capped at MaxShots).
func engineDefaults(shots int, opt *Options) (int, error) {
	if err := opt.Validate(shots); err != nil {
		return 0, err
	}
	if opt.CheckEvery == 0 {
		opt.CheckEvery = 256
	}
	if opt.ShardSize == 0 {
		opt.ShardSize = DefaultShardSize
	}
	if opt.MaxShots > 0 && opt.MaxShots < shots {
		return opt.MaxShots, nil
	}
	return shots, nil
}

// RunSharded is the parallel Monte-Carlo shot engine. It partitions the
// requested budget into fixed-size shards (Options.ShardSize, default 512
// shots), derives an independent deterministic RNG stream per shard from the
// top-level seed (ShardSeed), executes the shards on Options.Workers worker
// goroutines (default GOMAXPROCS; 1 = serial reference, no goroutines), and
// merges shard results in shard order.
//
// Determinism contract: the merged result is always the in-order fold of a
// PREFIX of the shard sequence, and each shard's contribution depends only
// on (seed, shard index). Consequences:
//
//   - The full-budget result is bit-identical for every worker count.
//   - Convergence early-stop is decided from the cross-shard Tally over the
//     committed contiguous prefix, at shard boundaries only — so the
//     converged prefix length, and therefore the converged result, is also
//     bit-identical for every worker count. Shards that finish beyond the
//     converged prefix are discarded, never merged.
//   - Cancellation (the one intentionally non-deterministic stop, as with
//     wall-clock deadlines before this engine) keeps the longest contiguous
//     prefix of completed shards: the partial result is flagged Truncated
//     and is itself reproducible — rerunning the same prefix of shards
//     regenerates it bit-exactly.
//
// The returned Status counts shots over the merged prefix (Completed is
// always a whole number of shards).
//
// Checkpoint/resume: opt.Checkpoint observes every commit (and a Final
// flush) with the merged-so-far accumulator; opt.Resume skips an already-
// committed prefix and restores the accumulator, making a crash-resumed run
// bit-identical to a cold one — the accumulator is folded in strictly
// ascending shard order in both cases, so the floating-point/merge sequence
// is the same sequence either way.
func RunSharded[R any](ctx context.Context, shots int, seed int64, opt Options,
	run ShardFunc[R], merge MergeFunc[R]) (R, Status, error) {

	var zero R
	budget, err := engineDefaults(shots, &opt)
	if err != nil {
		return zero, Status{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.TargetRelStdErr > 0 && opt.MinShots == 0 {
		opt.MinShots = 1000
	}
	shards := shardPlan(budget, opt.ShardSize, seed)
	nShards := len(shards)

	// Tracing: one root span for the whole run, per-shard spans under it,
	// merge/checkpoint spans on the commit path. The tracer consumes no
	// random numbers and never blocks (bounded buffer, counted drops), so
	// results are bit-identical with tracing on or off.
	ctx, runSpan := obs.StartSpan(ctx, "mc.run",
		obs.Int("shots", budget), obs.Int("shards", nShards),
		obs.Int("shard_size", opt.ShardSize))
	defer runSpan.End()

	// Restore a committed prefix. The geometry is re-validated so a snapshot
	// taken under a different budget or shard size (or simply corrupted) can
	// never be silently replayed into a double-count.
	var out R
	start := 0
	var tally Tally
	if opt.Resume != nil {
		r := opt.Resume
		_, resumeSpan := obs.StartSpan(ctx, "resume",
			obs.Int("shards", r.Shards), obs.Int("resumed_shots", r.Shots))
		if r.Shards < 0 || r.Shards > nShards {
			resumeSpan.End()
			return zero, Status{}, simerr.Invalidf(
				"simrun: resume prefix of %d shards outside the %d-shard plan", r.Shards, nShards)
		}
		if want := shardShots(budget, opt.ShardSize, r.Shards); r.Shots != want {
			resumeSpan.End()
			return zero, Status{}, simerr.Invalidf(
				"simrun: resume prefix covers %d shots, but %d shards of %d-shot budget at shard size %d cover %d",
				r.Shots, r.Shards, budget, opt.ShardSize, want)
		}
		if len(r.StateJSON) > 0 {
			if err := json.Unmarshal(r.StateJSON, &out); err != nil {
				resumeSpan.End()
				return zero, Status{}, simerr.Invalidf("simrun: resume state does not decode into %T: %v", out, err)
			}
		} else if r.Shards > 0 {
			resumeSpan.End()
			return zero, Status{}, simerr.Invalidf(
				"simrun: resume prefix of %d shards has no accumulator state", r.Shards)
		}
		start = r.Shards
		if r.NoConverge {
			tally.Add(r.Shots, -1)
		} else {
			tally.Add(r.Shots, r.Events)
		}
		if opt.Progress != nil {
			opt.Progress(r.Shots, budget)
		}
		resumeSpan.End()
		finish := func(reason string) (R, Status, error) {
			st := Status{
				Requested:  budget,
				Completed:  r.Shots,
				Converged:  reason == StopConverged,
				StopReason: reason,
			}
			if opt.Checkpoint != nil {
				_, ckSpan := obs.StartSpan(ctx, "checkpoint.save",
					obs.Int("shards", start), obs.Bool("final", true))
				sh, ev, nc := tally.State()
				opt.Checkpoint(CheckpointState{Shards: start, Shots: sh, Requested: budget,
					Events: ev, NoConverge: nc, State: out, Final: true})
				ckSpan.End()
			}
			runSpan.SetAttr(obs.String("stop", reason), obs.Int("completed", r.Shots))
			return out, st, nil
		}
		// A snapshot of the full plan, or one whose prefix already satisfies
		// the convergence guard, is a finished run: return it as-is (the
		// bytes a cold run would have produced) without spending a shot.
		if r.Shards == nShards {
			return finish(StopCompleted)
		}
		if tally.Converged(opt.TargetRelStdErr, opt.MinShots) {
			return finish(StopConverged)
		}
	}

	workers := poolSize(opt.Workers, nShards-start)
	runSpan.SetAttr(obs.Int("workers", workers))

	// The commit step folds freshly completed shards into the accumulator
	// in strictly ascending shard order, feeding the cross-shard tally and
	// running the convergence test at each shard boundary. Progress and
	// Checkpoint see the committed prefix only, never uncommitted shards,
	// so they cannot perturb determinism (see runShards on reentrancy).
	var reason string
	frontier, err := runShards(ctx, shards, start, nShards, workers, opt.CheckEvery, run,
		func(l *shardLoop[R]) {
			mergeCtx, mergeSpan := obs.StartSpan(ctx, "merge", obs.Int("from", l.frontier))
			for l.ready() {
				sh, res, events := l.take()
				tally.Add(sh.N, events)
				merge(&out, res)
				if tally.Converged(opt.TargetRelStdErr, opt.MinShots) {
					l.halt()
					reason = StopConverged
					break
				}
			}
			mergeSpan.SetAttr(obs.Int("to", l.frontier))
			if opt.Progress != nil {
				opt.Progress(shardShots(budget, opt.ShardSize, l.frontier), budget)
			}
			if opt.Checkpoint != nil {
				_, ckSpan := obs.StartSpan(mergeCtx, "checkpoint.save", obs.Int("shards", l.frontier))
				sh, ev, nc := tally.State()
				opt.Checkpoint(CheckpointState{Shards: l.frontier, Shots: sh, Requested: budget,
					Events: ev, NoConverge: nc, State: out})
				ckSpan.End()
			}
			mergeSpan.End()
		})
	if err != nil {
		return zero, Status{}, err
	}

	// Decide the stop reason; the accumulator already holds exactly the
	// committed prefix [0, frontier) — when convergence fired, the commit
	// step halted the loop at the converged boundary.
	switch {
	case reason == StopConverged:
	case frontier >= nShards:
		reason = StopCompleted
	case ctx.Err() == context.DeadlineExceeded:
		reason = StopDeadline
	default:
		reason = StopCanceled
	}

	completed := shardShots(budget, opt.ShardSize, frontier)
	if opt.Checkpoint != nil {
		// The Final flush: whatever stopped the run (SIGINT, deadline,
		// convergence, completion), the last committed prefix is persisted
		// before the caller sees the status.
		_, ckSpan := obs.StartSpan(ctx, "checkpoint.save",
			obs.Int("shards", frontier), obs.Bool("final", true))
		sh, ev, nc := tally.State()
		opt.Checkpoint(CheckpointState{Shards: frontier, Shots: sh, Requested: budget,
			Events: ev, NoConverge: nc, State: out, Final: true})
		ckSpan.End()
	}
	runSpan.SetAttr(obs.String("stop", reason), obs.Int("completed", completed))
	return out, Status{
		Requested:  budget,
		Completed:  completed,
		Truncated:  reason == StopCanceled || reason == StopDeadline,
		Converged:  reason == StopConverged,
		StopReason: reason,
	}, nil
}
