// Crash-resume equivalence: the consumer-level proof that the checkpoint
// layer keeps its headline promise. For every checkpointed Monte-Carlo kind
// the suite kills a run at a (seeded-random) shard boundary — and once
// mid-shard — persists the committed prefix through the real on-disk
// snapshot format, resumes in a fresh Options, and asserts the final
// marshaled result is BYTE-IDENTICAL to an uninterrupted run, for workers
// 1/4/7. This is the property that makes qisimd's recovery verifiable
// rather than best-effort: a resumed job's body is indistinguishable from a
// never-interrupted one, so cached results stay canonical across crashes.
package qisim_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"qisim/internal/checkpoint"
	"qisim/internal/pauli"
	"qisim/internal/readout"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

// crashCase adapts one public MC entry point to the suite: run it under the
// given Options and hand back the marshaled result (the exact bytes a CLI
// would print or qisimd would cache) plus the run status.
type crashCase struct {
	kind   string
	budget int
	shard  int
	seed   int64
	run    func(ctx context.Context, opt simrun.Options) (json.RawMessage, simrun.Status, error)
}

func crashCases() []crashCase {
	marshal := func(res any, status simrun.Status, err error) (json.RawMessage, simrun.Status, error) {
		if err != nil {
			return nil, simrun.Status{}, err
		}
		b, merr := json.Marshal(res)
		return b, status, merr
	}
	return []crashCase{
		{
			kind: "surface.mc", budget: 4000, shard: 128, seed: 11,
			run: func(ctx context.Context, opt simrun.Options) (json.RawMessage, simrun.Status, error) {
				res, err := surface.MonteCarloPhenomenologicalCtx(ctx, 3, 0.02, 0.02, 3, 4000, 11, opt)
				return marshal(res, res.Status, err)
			},
		},
		{
			kind: "pauli.trajectory", budget: 1536, shard: 128, seed: 7,
			run: func(ctx context.Context, opt simrun.Options) (json.RawMessage, simrun.Status, error) {
				c := pauli.DecoherenceChannel(25e-9, 280e-6, 175e-6)
				res, err := pauli.TrajectoryAverageFidelityCtx(ctx, c, 1536, 7, opt)
				return marshal(res, res.Status, err)
			},
		},
		{
			kind: "readout.mc", budget: 1536, shard: 128, seed: 5,
			run: func(ctx context.Context, opt simrun.Options) (json.RawMessage, simrun.Status, error) {
				cfg := readout.DefaultMultiRoundConfig()
				cfg.Shots, cfg.Seed = 1536, 5
				res, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), cfg, opt)
				return marshal(res, res.Status, err)
			},
		},
	}
}

func (c crashCase) meta() checkpoint.Meta {
	return checkpoint.Meta{Kind: c.kind, Key: c.kind, Seed: c.seed, ShardSize: c.shard, Budget: c.budget}
}

// runKilled executes one checkpointed run of c that cancels itself once the
// committed prefix reaches killShard shards (killShard <= 0: cancel shortly
// after the first commit, landing mid-shard for the in-flight workers). It
// returns the interrupted status; the snapshot is left under dir.
func runKilled(t *testing.T, c crashCase, dir string, workers, killShard int) simrun.Status {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opt := simrun.Options{ShardSize: c.shard, Workers: workers, CheckEvery: 1}
	sv, loaded, err := checkpoint.Attach(&opt, dir, true, 1, c.meta())
	if err != nil {
		t.Fatalf("attach for kill run: %v", err)
	}
	save := opt.Checkpoint
	if killShard > 0 {
		opt.Checkpoint = func(st simrun.CheckpointState) {
			save(st)
			if !st.Final && st.Shards >= killShard {
				cancel()
			}
		}
	} else {
		// Mid-shard kill: fire the cancel asynchronously just after the first
		// commit, so the workers' in-flight shards are torn and discarded.
		first := make(chan struct{})
		var once sync.Once
		opt.Checkpoint = func(st simrun.CheckpointState) {
			save(st)
			once.Do(func() { close(first) })
		}
		go func() {
			<-first
			time.Sleep(500 * time.Microsecond)
			cancel()
		}()
	}
	_ = loaded // first life: nothing to resume
	_, st, err := c.run(ctx, opt)
	if err != nil {
		t.Fatalf("killed run errored instead of truncating: %v", err)
	}
	if err := sv.Err(); err != nil {
		t.Fatalf("checkpoint durability degraded during kill run: %v", err)
	}
	if sv.Saves() == 0 {
		t.Fatal("kill run wrote no snapshot")
	}
	return st
}

// resumeToEnd resumes c from the snapshot under dir and runs to completion.
func resumeToEnd(t *testing.T, c crashCase, dir string, workers int) (json.RawMessage, simrun.Status) {
	t.Helper()
	opt := simrun.Options{ShardSize: c.shard, Workers: workers, CheckEvery: 1}
	_, loaded, err := checkpoint.Attach(&opt, dir, true, 1, c.meta())
	if err != nil {
		t.Fatalf("attach for resume: %v", err)
	}
	if loaded == nil {
		t.Fatal("no snapshot found to resume from")
	}
	got, st, err := c.run(context.Background(), opt)
	if err != nil {
		t.Fatalf("resumed run (from %d shards): %v", loaded.Shards, err)
	}
	return got, st
}

// TestCrashResumeEquivalence is the headline property: kill at a seeded-
// random shard boundary, resume from disk, byte-identical JSON vs. the cold
// run — per kind, per worker count. With workers > 1 the boundary cancel
// additionally lands mid-shard for the other workers, whose torn shards must
// be discarded rather than committed.
func TestCrashResumeEquivalence(t *testing.T) {
	for _, c := range crashCases() {
		c := c
		t.Run(c.kind, func(t *testing.T) {
			cold, coldSt, err := c.run(context.Background(), simrun.Options{ShardSize: c.shard})
			if err != nil {
				t.Fatalf("cold run: %v", err)
			}
			if coldSt.Truncated || coldSt.Completed != c.budget {
				t.Fatalf("cold run did not complete: %+v", coldSt)
			}
			nShards := (c.budget + c.shard - 1) / c.shard
			rng := rand.New(rand.NewSource(99))
			for _, workers := range []int{1, 4, 7} {
				workers := workers
				kill := 1 + rng.Intn(nShards/2) // seeded-random boundary, always mid-run
				t.Run(fmt.Sprintf("workers-%d", workers), func(t *testing.T) {
					dir := t.TempDir()
					st := runKilled(t, c, dir, workers, kill)
					if !st.Truncated {
						// Workers can race past the cancel and finish; the
						// equivalence claim below still holds from the
						// complete snapshot, but say so.
						t.Logf("kill at shard %d lost the race, run completed (%d/%d)",
							kill, st.Completed, st.Requested)
					} else if st.Completed%c.shard != 0 {
						t.Fatalf("interrupted run kept a torn shard: %d shots committed", st.Completed)
					}
					got, gotSt := resumeToEnd(t, c, dir, workers)
					if gotSt.Truncated || gotSt.Completed != c.budget {
						t.Fatalf("resumed run did not complete: %+v", gotSt)
					}
					if !bytes.Equal(got, cold) {
						t.Fatalf("resumed result differs from cold run\ncold:    %s\nresumed: %s", cold, got)
					}
				})
			}
		})
	}
}

// TestCrashResumeMidShardAndChained covers the two nastier shapes on the
// surface decoder: (1) a mid-shard kill — the cancel lands while shards are
// in flight, so the committed prefix is whatever survived; (2) a chained
// double crash — kill, resume, kill again later, resume again. Both must
// still reproduce the cold run byte-for-byte.
func TestCrashResumeMidShardAndChained(t *testing.T) {
	c := crashCases()[0] // surface.mc
	cold, _, err := c.run(context.Background(), simrun.Options{ShardSize: c.shard})
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}

	t.Run("mid-shard", func(t *testing.T) {
		dir := t.TempDir()
		st := runKilled(t, c, dir, 4, 0) // async cancel: mid-shard
		if st.Completed == c.budget {
			// The cancel lost the race and the run finished (its final
			// partial shard is then a legitimate commit, not a torn one).
			// The resume equivalence below still holds from the complete
			// snapshot.
			t.Logf("mid-shard cancel lost the race, run completed (%d/%d)", st.Completed, c.budget)
		} else if st.Completed%c.shard != 0 {
			t.Fatalf("mid-shard kill committed a torn shard: %d shots", st.Completed)
		}
		got, _ := resumeToEnd(t, c, dir, 4)
		if !bytes.Equal(got, cold) {
			t.Fatalf("mid-shard resume differs from cold run\ncold:    %s\nresumed: %s", cold, got)
		}
	})

	t.Run("chained-double-crash", func(t *testing.T) {
		dir := t.TempDir()
		runKilled(t, c, dir, 7, 3) // first crash early

		// Second life: resume AND crash again, later in the plan.
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		opt := simrun.Options{ShardSize: c.shard, Workers: 7, CheckEvery: 1}
		sv, loaded, err := checkpoint.Attach(&opt, dir, true, 1, c.meta())
		if err != nil {
			t.Fatalf("attach second life: %v", err)
		}
		if loaded == nil {
			t.Fatal("second life found no snapshot")
		}
		save := opt.Checkpoint
		opt.Checkpoint = func(st simrun.CheckpointState) {
			save(st)
			if !st.Final && st.Shards >= loaded.Shards+4 {
				cancel()
			}
		}
		if _, _, err := c.run(ctx, opt); err != nil {
			t.Fatalf("second life: %v", err)
		}
		if err := sv.Err(); err != nil {
			t.Fatalf("second-life durability: %v", err)
		}

		// Third life: run to completion.
		got, _ := resumeToEnd(t, c, dir, 7)
		if !bytes.Equal(got, cold) {
			t.Fatalf("double-crash resume differs from cold run\ncold:    %s\nresumed: %s", cold, got)
		}
	})
}
