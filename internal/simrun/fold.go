package simrun

import (
	"context"
	"encoding/json"

	"qisim/internal/obs"
	"qisim/internal/simerr"
)

// Fold is the committed-prefix fold of a sharded Monte-Carlo run: the one
// place a run's stop policy lives. It owns the accumulator, the event tally
// with its no-convergence latch, the convergence guard and its floor, the
// Progress and Checkpoint cadence, the Final flush and the Status.
// RunSharded folds its in-order shard commits through it, and the dist
// coordinator folds the per-shard states its workers report through it, so
// both lanes stop at the same shard boundary for the same reason and hand
// their hooks the same states.
//
// A Fold is not safe for concurrent use; both callers hold a commit lock
// around it.
type Fold[R any] struct {
	opt     Options // validated, with the engine's defaults
	shots   int     // the budget
	nShards int
	merge   MergeFunc[R]

	acc        R
	shards     int // committed shard prefix
	done       int // shots the prefix covers
	events     int
	noConverge bool
	reason     string // StopConverged or StopCompleted once the fold stops the run
}

// NewFold validates opt against the shot budget as RunSharded does, applies
// the engine's defaults (the 1000-shot convergence floor only after the
// budget check, so a run shorter than the floor spends its budget), and
// restores opt.Resume: its accumulator, shard prefix, events and latch. A
// resumed prefix's shots go to Progress, and the stop check runs on it at
// once, so a snapshot that already covers the plan or meets the guard is a
// stopped fold.
func NewFold[R any](shots int, opt Options, merge MergeFunc[R]) (*Fold[R], error) {
	if err := engineDefaults(shots, &opt); err != nil {
		return nil, err
	}
	if opt.TargetRelStdErr > 0 && opt.MinShots == 0 {
		opt.MinShots = 1000
	}
	f := &Fold[R]{opt: opt, shots: shots, nShards: PlanShards(shots, opt.ShardSize), merge: merge}
	if r := opt.Resume; r != nil {
		if len(r.StateJSON) > 0 {
			if err := json.Unmarshal(r.StateJSON, &f.acc); err != nil {
				return nil, simerr.Invalidf("simrun: resume state does not decode into %T: %v", f.acc, err)
			}
		}
		f.shards, f.done, f.events, f.noConverge = r.Shards, r.Shots, r.Events, r.NoConverge
		if opt.Progress != nil {
			opt.Progress(r.Shots, shots)
		}
	}
	f.check()
	return f, nil
}

// Add merges the next shard of the plan, in ascending order, with its event
// count (negative: the estimator has no binomial statistic, which latches
// convergence off for the run while later counts still add to the tally).
// It reports whether the run stops at this boundary.
func (f *Fold[R]) Add(res R, events int) bool {
	f.merge(&f.acc, res)
	f.shards++
	f.done = shardShots(f.shots, f.opt.ShardSize, f.shards)
	if events < 0 {
		f.noConverge = true
	} else {
		f.events += events
	}
	return f.check()
}

// check decides whether the committed prefix stops the run: convergence
// first, then completion.
func (f *Fold[R]) check() bool {
	switch {
	case f.reason != "":
	case f.opt.TargetRelStdErr > 0 && !f.noConverge && f.done >= f.opt.MinShots &&
		binomialConverged(f.events, f.done, f.opt.TargetRelStdErr):
		f.reason = StopConverged
	case f.shards == f.nShards:
		f.reason = StopCompleted
	default:
		return false
	}
	return true
}

// Stopped reports whether the fold has stopped the run.
func (f *Fold[R]) Stopped() bool { return f.reason != "" }

// Frontier returns the committed prefix: its shard count and its shots.
func (f *Fold[R]) Frontier() (shards, shots int) { return f.shards, f.done }

// Commit hands the committed prefix to Progress, and to Checkpoint unless
// the run has stopped: the commit that stops a run leaves its save to the
// Final flush. Call it once per advance of the prefix.
func (f *Fold[R]) Commit(ctx context.Context) {
	if f.opt.Progress != nil {
		f.opt.Progress(f.done, f.shots)
	}
	if f.reason == "" {
		f.save(ctx, false)
	}
}

// Finish runs the Final flush and returns the accumulator and the run's
// Status. reason (StopCanceled or StopDeadline) counts only when the fold
// did not stop the run itself.
func (f *Fold[R]) Finish(ctx context.Context, reason string) (R, Status) {
	if f.reason != "" {
		reason = f.reason
	}
	f.save(ctx, true)
	return f.acc, Status{
		Requested:  f.shots,
		Completed:  f.done,
		Truncated:  reason == StopCanceled || reason == StopDeadline,
		Converged:  reason == StopConverged,
		StopReason: reason,
	}
}

// save hands the committed prefix to Checkpoint under a checkpoint.save
// span opened below ctx's span.
func (f *Fold[R]) save(ctx context.Context, final bool) {
	if f.opt.Checkpoint == nil {
		return
	}
	span := (*obs.Span)(nil)
	if obs.FromContext(ctx) != nil {
		_, span = obs.StartSpan(ctx, "checkpoint.save", obs.Int("shards", f.shards), obs.Bool("final", final))
	}
	f.opt.Checkpoint(CheckpointState{Shards: f.shards, Shots: f.done, Requested: f.shots,
		Events: f.events, NoConverge: f.noConverge, State: f.acc, Final: final})
	span.End()
}
