// Package simrun is the Monte-Carlo engine every long-running QIsim entry
// point flows through. It provides context-aware run options (deadline,
// shot budget, convergence target, check interval) and one sharded shot
// loop behind RunSharded and RunWindow that turns cancellation into
// *partial, flagged* results instead of thrown-away work: a truncated
// Monte-Carlo run reports the shots it completed, the best-so-far estimate,
// and Truncated=true, never a panic or a hang.
//
// RunSharded also implements the MC convergence guard: an early exit at a
// shard boundary once the binomial standard error of the committed
// estimate falls below a relative target, gated by a minimum-shot floor so
// a lucky early streak cannot terminate a sweep prematurely.
//
// Determinism contract: the engine never consumes random numbers outside
// the per-shard streams, so two runs with the same seed and options produce
// bit-identical results (possibly differing only in how many shots they
// complete when wall-clock deadlines fire — deadline truncation is the one
// intentionally non-deterministic stop).
package simrun

import (
	"math"

	"qisim/internal/simerr"
)

// Stop reasons recorded in Status.StopReason.
const (
	StopCompleted = "completed"
	StopCanceled  = "canceled"
	StopDeadline  = "deadline"
	StopConverged = "converged"
)

// DefaultShardSize is the parallel engine's default shots-per-shard. It is
// the granularity of both parallelism and the cross-shard convergence check:
// small enough that short runs still fan out, large enough that per-shard
// setup (RNG construction, scratch buffers) amortises.
const DefaultShardSize = 512

// Options configure a context-aware simulation run.
type Options struct {
	// MinShots is the convergence floor: the guard never stops on
	// convergence before this many shots (default 1000 when a convergence
	// target is set).
	MinShots int
	// TargetRelStdErr enables the convergence guard: stop once the relative
	// standard error of the binomial estimate drops below this (0 =
	// disabled, run the full budget).
	TargetRelStdErr float64
	// CheckEvery is the cancellation/convergence polling interval in shots
	// (default 256). Smaller = more responsive, larger = cheaper.
	CheckEvery int
	// Workers is the parallel engine's worker-goroutine count: 0 = one per
	// GOMAXPROCS, 1 = serial reference execution (no goroutines spawned).
	// The merged result is bit-identical for every worker count (see
	// RunSharded's determinism contract).
	Workers int
	// ShardSize is the shots-per-shard partition of the parallel engine
	// (default DefaultShardSize). It fixes the RNG stream layout: two runs
	// agree bit-exactly only when seed AND ShardSize agree.
	ShardSize int
	// Progress, when non-nil, is invoked by the parallel engine each time
	// the committed in-order shard prefix advances, with the shots merged so
	// far and the effective budget. It is strictly observational — it sees
	// only already-committed state and must not block: qisimd uses it to
	// publish live partial-progress for GET /v1/jobs/{id}. Called from
	// worker goroutines under the engine's commit lock; keep it O(1) (e.g.
	// two atomic stores).
	//
	// Reentrancy contract (shared with Checkpoint and the tracer's
	// merge/checkpoint spans, which fire at the same commit point): the
	// callback runs while the engine holds its commit mutex, AFTER the
	// shard fold for this commit has fully happened. A slow or even
	// permanently blocking callback therefore (a) stalls further commits —
	// workers finish their in-flight shard and then queue on the mutex —
	// but (b) can never deadlock the engine, because the engine acquires
	// nothing else while calling out and the callback is handed plain
	// values, and (c) can never reorder or skew the merge, whose in-order
	// fold completed before the callback observed it. The callback MUST NOT
	// call back into the same run's engine (that would be a self-deadlock
	// on the commit mutex); starting spans on the run's tracer is safe (the
	// tracer lock is leaf-level). TestRunShardedBlockingCallbacksCannotSkewMerge
	// pins this contract.
	Progress func(completed, requested int)
	// Checkpoint, when non-nil, is invoked by the parallel engine at shard-
	// boundary commits (the same commit point Progress piggybacks on) with
	// the committed-prefix state, and once more with Final=true when the run
	// stops for any reason. The handed-out State is the live accumulator:
	// serialize it synchronously inside the callback and do not retain it.
	// Called under the engine's commit lock — a slow callback (file I/O)
	// throttles commits, not correctness; see the reentrancy contract on
	// Progress. See internal/checkpoint.Saver for the durable-snapshot
	// implementation.
	Checkpoint func(CheckpointState)
	// Resume, when non-nil, seeds the engine with a previously committed
	// shard prefix (produced by a Checkpoint callback): the engine skips the
	// first Resume.Shards shards, pre-seeds the convergence tally, and
	// starts the accumulator from Resume.StateJSON. Because shard RNG
	// streams derive purely from (seed, shard index), the resumed run is
	// bit-identical to an uninterrupted one. The engine re-validates the
	// prefix geometry against the current budget and shard size and rejects
	// inconsistent snapshots with a typed error — it never double-counts or
	// silently replays shards.
	Resume *ResumeState
}

// CheckpointState is the committed-prefix state handed to the Checkpoint
// callback at each shard-boundary commit.
type CheckpointState struct {
	// Shards is the committed contiguous shard-prefix length.
	Shards int
	// Shots is the number of shots covered by the committed prefix.
	Shots int
	// Requested is the shot budget.
	Requested int
	// Events is the committed binomial event count feeding the convergence
	// guard (0 when the estimator disabled convergence — see NoConverge).
	Events int
	// NoConverge is true when the estimator exposes no binomial statistic
	// (shard functions returned negative event counts).
	NoConverge bool
	// State is the accumulator merged over the committed prefix. It is the
	// engine's live value: serialize synchronously, do not retain.
	State any
	// Final is true for the one callback issued after the run stops
	// (completed, converged, canceled or deadline); the flush that makes
	// SIGINT-then-resume lossless.
	Final bool
}

// ResumeState seeds RunSharded with a previously committed prefix.
type ResumeState struct {
	// Shards is the committed shard-prefix length to skip.
	Shards int
	// Shots is the number of shots the prefix covered; must equal the shot
	// count of the first Shards shards under the current budget/ShardSize
	// (re-validated by the engine).
	Shots int
	// Events is the committed binomial event count.
	Events int
	// NoConverge restores the tally's "no binomial statistic" latch.
	NoConverge bool
	// StateJSON is the serialized accumulator (the Checkpoint callback's
	// State marshaled with encoding/json); it is unmarshaled into the shard
	// result type R. Empty means the zero accumulator (only valid with
	// Shards == 0).
	StateJSON []byte
}

// Validate checks the options for internal consistency against a requested
// shot budget.
func (o Options) Validate(requested int) error {
	if requested <= 0 {
		return simerr.Invalidf("simrun: requested shots must be positive, got %d", requested)
	}
	if o.MinShots < 0 || o.CheckEvery < 0 {
		return simerr.Invalidf("simrun: negative option (MinShots %d, CheckEvery %d)",
			o.MinShots, o.CheckEvery)
	}
	if o.Workers < 0 || o.ShardSize < 0 {
		return simerr.Invalidf("simrun: negative option (Workers %d, ShardSize %d)",
			o.Workers, o.ShardSize)
	}
	if o.TargetRelStdErr < 0 || math.IsNaN(o.TargetRelStdErr) {
		return simerr.Invalidf("simrun: TargetRelStdErr must be >= 0, got %v", o.TargetRelStdErr)
	}
	if o.MinShots > requested {
		return simerr.Budgetf("simrun: convergence floor MinShots=%d exceeds shot budget %d",
			o.MinShots, requested)
	}
	return nil
}

// Status is the flagged outcome of a guarded run, embedded in every
// context-aware result type.
type Status struct {
	// Requested is the shot budget asked for.
	Requested int `json:"requested"`
	// Completed is the number of shots actually finished.
	Completed int `json:"completed"`
	// Truncated is true when the run stopped early on cancellation or
	// deadline: the result is a best-so-far partial estimate.
	Truncated bool `json:"truncated"`
	// Converged is true when the run stopped early because the convergence
	// guard was satisfied (the result is statistically complete).
	Converged bool `json:"converged"`
	// StopReason is one of the Stop* constants.
	StopReason string `json:"stop_reason"`
}

// Err converts a truncated status into a typed ErrInterrupted (nil
// otherwise) — for callers that prefer error control flow over flags.
func (s Status) Err() error {
	if !s.Truncated {
		return nil
	}
	return simerr.Interruptedf("simrun: run truncated after %d/%d shots (%s)",
		s.Completed, s.Requested, s.StopReason)
}

// binomialConverged reports whether the relative standard error of the rate
// events/done is below target. A zero-event run never converges (its
// relative error is undefined and the true rate may simply be below the
// resolution of the budget so far).
func binomialConverged(events, done int, target float64) bool {
	if events <= 0 || events >= done {
		return false
	}
	p := float64(events) / float64(done)
	se := math.Sqrt(p * (1 - p) / float64(done))
	return se/p <= target
}
