package simrun

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"qisim/internal/obs"
)

// ShardTask is the per-shard execution context handed to a ShardFunc. It
// bundles the shard geometry, the shard's private deterministic RNG stream,
// and the cancellation poll. A ShardTask is owned by exactly one worker
// goroutine and must not escape the ShardFunc invocation.
type ShardTask struct {
	Shard
	// RNG is the shard's private stream, seeded with Shard.Seed. Every
	// random draw of the shard MUST come from this stream (and only this
	// stream) or cross-worker determinism is lost. Hits is the stream's
	// second draw path: a block of Bernoulli trials on the same words,
	// which interleaves freely with draws through RNG.
	RNG *rand.Rand

	src         *go1Source // the source behind RNG, for Hits
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
	st := newShardStream(sh.Seed)
	return &ShardTask{
		Shard: sh,
		RNG:   st.rng,
		src:   &st.src,
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

	// Span attributes are formatted only for a tracer: strconv allocates
	// every integer past 99, and an untraced shard must cost nothing.
	traced := obs.FromContext(ctx) != nil
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
			shardCtx, shardSpan := ctx, (*obs.Span)(nil)
			if traced {
				shardCtx, shardSpan = obs.StartSpan(ctx, "shard",
					obs.Int("shard", i), obs.Int("shots", plan[i].N))
			}
			st := newShardStream(plan[i].Seed)
			t := taskPool.Get().(*ShardTask)
			*t = ShardTask{
				Shard: plan[i],
				RNG:   st.rng,
				src:   &st.src,
				ctx:   shardCtx,
				every: checkEvery,
			}
			res, events, err := run(t)
			interrupted := t.interrupted
			*t = ShardTask{}
			taskPool.Put(t)
			streamPool.Put(st)
			if interrupted {
				shardSpan.SetAttr(obs.Bool("interrupted", true))
			} else if shardSpan != nil && err == nil && events >= 0 {
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

// engineDefaults validates opt against a requested shot budget and fills
// in the engine's CheckEvery and ShardSize defaults.
func engineDefaults(shots int, opt *Options) error {
	if err := opt.Validate(shots); err != nil {
		return err
	}
	if opt.CheckEvery == 0 {
		opt.CheckEvery = 256
	}
	if opt.ShardSize == 0 {
		opt.ShardSize = DefaultShardSize
	}
	return nil
}

// RunSharded is the parallel Monte-Carlo shot engine. It partitions the
// requested budget into fixed-size shards (Options.ShardSize, default 512
// shots), derives an independent deterministic RNG stream per shard from the
// top-level seed (ShardSeed), executes the shards on Options.Workers worker
// goroutines (default GOMAXPROCS; 1 = serial reference, no goroutines), and
// commits shard results in shard order through the run's Fold.
//
// Determinism contract: the merged result is always the in-order fold of a
// PREFIX of the shard sequence, and each shard's contribution depends only
// on (seed, shard index). Consequences:
//
//   - The full-budget result is bit-identical for every worker count.
//   - Convergence early-stop is decided by the Fold over the committed
//     contiguous prefix, at shard boundaries only — so the converged prefix
//     length, and therefore the converged result, is also bit-identical for
//     every worker count. Shards that finish beyond the converged prefix are
//     discarded, never merged.
//   - Cancellation (the one intentionally non-deterministic stop, as with
//     wall-clock deadlines before this engine) keeps the longest contiguous
//     prefix of completed shards: the partial result is flagged Truncated
//     and is itself reproducible — rerunning the same prefix of shards
//     regenerates it bit-exactly.
//
// The returned Status counts shots over the merged prefix (Completed is
// always a whole number of shards).
//
// Checkpoint/resume: opt.Checkpoint observes every commit that does not
// stop the run, and a Final flush, with the merged-so-far accumulator;
// opt.Resume skips an already-committed prefix and restores the
// accumulator and tally, making a crash-resumed run bit-identical to a cold
// one — the accumulator is folded in strictly ascending shard order in both
// cases, so the floating-point/merge sequence is the same sequence either
// way, and the resumed prefix meets the same stop check a cold run meets at
// that boundary.
func RunSharded[R any](ctx context.Context, shots int, seed int64, opt Options,
	run ShardFunc[R], merge MergeFunc[R]) (R, Status, error) {

	var zero R
	if err := engineDefaults(shots, &opt); err != nil {
		return zero, Status{}, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	shards := shardPlan(shots, opt.ShardSize, seed)

	// Tracing: one root span for the whole run, per-shard spans under it,
	// merge/checkpoint spans on the commit path. The tracer consumes no
	// random numbers and never blocks (bounded buffer, counted drops), so
	// results are bit-identical with tracing on or off.
	ctx, runSpan := obs.StartSpan(ctx, "mc.run",
		obs.Int("shots", shots), obs.Int("shards", len(shards)),
		obs.Int("shard_size", opt.ShardSize))
	defer runSpan.End()

	resumeSpan := (*obs.Span)(nil)
	if r := opt.Resume; r != nil {
		_, resumeSpan = obs.StartSpan(ctx, "resume",
			obs.Int("shards", r.Shards), obs.Int("resumed_shots", r.Shots))
	}
	fold, err := NewFold(shots, opt, merge)
	resumeSpan.End()
	if err != nil {
		return zero, Status{}, err
	}

	// The commit step hands freshly completed shards to the fold in strictly
	// ascending shard order and halts the loop at the boundary where the
	// fold stops the run. Progress and Checkpoint see the committed prefix
	// only, never uncommitted shards, so they cannot perturb determinism
	// (see runShards on reentrancy).
	if start, _ := fold.Frontier(); !fold.Stopped() {
		workers := poolSize(opt.Workers, len(shards)-start)
		runSpan.SetAttr(obs.Int("workers", workers))
		traced := obs.FromContext(ctx) != nil
		_, err := runShards(ctx, shards, start, len(shards), workers, opt.CheckEvery, run,
			func(l *shardLoop[R]) {
				mergeCtx, mergeSpan := ctx, (*obs.Span)(nil)
				if traced {
					mergeCtx, mergeSpan = obs.StartSpan(ctx, "merge", obs.Int("from", l.frontier))
				}
				for l.ready() {
					_, res, events := l.take()
					if fold.Add(res, events) {
						l.halt()
					}
				}
				if mergeSpan != nil {
					mergeSpan.SetAttr(obs.Int("to", l.frontier))
				}
				fold.Commit(mergeCtx)
				mergeSpan.End()
			})
		if err != nil {
			return zero, Status{}, err
		}
	}

	// A run the fold did not stop was cut short by its context.
	reason := StopCanceled
	if ctx.Err() == context.DeadlineExceeded {
		reason = StopDeadline
	}
	out, st := fold.Finish(ctx, reason)
	runSpan.SetAttr(obs.String("stop", st.StopReason), obs.Int("completed", st.Completed))
	return out, st, nil
}
