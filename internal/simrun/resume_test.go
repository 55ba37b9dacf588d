package simrun

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"slices"
	"testing"

	"qisim/internal/simerr"
)

// shardBody is the reference shard function used across the resume tests: a
// deterministic pseudo-MC with a float accumulator so merge order matters.
func shardBody(t *ShardTask) (float64, int, error) {
	var sum float64
	events := 0
	for i := 0; t.Continue(i); i++ {
		v := t.RNG.Float64()
		sum += v * float64(t.GlobalShot(i)%7+1)
		if v < 0.1 {
			events++
		}
	}
	return sum, events, nil
}

func mergeFloat(dst *float64, src float64) { *dst += src }

// runCold runs the reference body to completion and returns (result, status).
func runCold(t *testing.T, shots int, opt Options) (float64, Status) {
	t.Helper()
	res, st, err := RunSharded(context.Background(), shots, 42, opt, shardBody, mergeFloat)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	return res, st
}

// TestResumeBitIdentical kills the run at every shard boundary (via a
// checkpoint hook that captures state, then a fresh run resumed from it) and
// asserts the resumed result is bit-identical to the cold run for several
// worker counts.
func TestResumeBitIdentical(t *testing.T) {
	const shots = 1000
	base := Options{ShardSize: 64, Workers: 1}
	coldRes, coldSt := runCold(t, shots, base)

	// Capture the state at every commit of a serial run.
	var states []CheckpointState
	capOpt := base
	capOpt.Checkpoint = func(st CheckpointState) {
		if !st.Final {
			// Deep-copy: State is the live accumulator (float64 is a value,
			// but marshal anyway to mimic real persistence).
			b, err := json.Marshal(st.State)
			if err != nil {
				t.Errorf("marshal state: %v", err)
			}
			st.State = nil
			states = append(states, st)
			states[len(states)-1].State = json.RawMessage(b)
		}
	}
	runCold(t, shots, capOpt)
	if len(states) == 0 {
		t.Fatal("no checkpoint states captured")
	}

	for _, workers := range []int{1, 4, 7} {
		for _, st := range states {
			opt := Options{ShardSize: 64, Workers: workers, Resume: &ResumeState{
				Shards:     st.Shards,
				Shots:      st.Shots,
				Events:     st.Events,
				NoConverge: st.NoConverge,
				StateJSON:  st.State.(json.RawMessage),
			}}
			res, rst, err := RunSharded(context.Background(), shots, 42, opt, shardBody, mergeFloat)
			if err != nil {
				t.Fatalf("resume from %d shards (workers %d): %v", st.Shards, workers, err)
			}
			if res != coldRes {
				t.Fatalf("resume from %d shards (workers %d): result %v != cold %v",
					st.Shards, workers, res, coldRes)
			}
			if !reflect.DeepEqual(rst, coldSt) {
				t.Fatalf("resume from %d shards (workers %d): status %+v != cold %+v",
					st.Shards, workers, rst, coldSt)
			}
		}
	}
}

// TestResumeConvergedPrefix checks that resuming a run whose prefix already
// satisfies the convergence guard stops immediately with the identical
// converged result, and that resume from a complete snapshot returns the
// full result without spending shots.
func TestResumeConvergedPrefix(t *testing.T) {
	const shots = 4000
	opt := Options{ShardSize: 128, Workers: 1, TargetRelStdErr: 0.2, MinShots: 256, CheckEvery: 32}
	coldRes, coldSt := runCold(t, shots, opt)
	if !coldSt.Converged {
		t.Fatalf("expected converged cold run, got %+v", coldSt)
	}

	// Capture the final (converged) state.
	var final *CheckpointState
	capOpt := opt
	capOpt.Checkpoint = func(st CheckpointState) {
		if st.Final {
			b, _ := json.Marshal(st.State)
			c := st
			c.State = b
			final = &c
		}
	}
	runCold(t, shots, capOpt)
	if final == nil {
		t.Fatal("no final checkpoint state")
	}

	shardsRun := 0
	resOpt := opt
	resOpt.Resume = &ResumeState{
		Shards: final.Shards, Shots: final.Shots, Events: final.Events,
		NoConverge: final.NoConverge, StateJSON: final.State.([]byte),
	}
	res, st, err := RunSharded(context.Background(), shots, 42, resOpt,
		func(tk *ShardTask) (float64, int, error) {
			shardsRun++
			return shardBody(tk)
		}, mergeFloat)
	if err != nil {
		t.Fatalf("resume converged: %v", err)
	}
	if shardsRun != 0 {
		t.Fatalf("resume of a converged prefix ran %d shards, want 0", shardsRun)
	}
	if res != coldRes || st.Completed != coldSt.Completed || !st.Converged {
		t.Fatalf("resume converged: got (%v, %+v), want (%v, %+v)", res, st, coldRes, coldSt)
	}
}

// TestResumeMidShardKill cancels mid-shard (a torn shard is discarded, only
// the committed prefix survives), then resumes and checks bit-identity.
func TestResumeMidShardKill(t *testing.T) {
	const shots = 960
	base := Options{ShardSize: 64, Workers: 1}
	coldRes, _ := runCold(t, shots, base)

	ctx, cancel := context.WithCancel(context.Background())
	var last CheckpointState
	opt := base
	opt.CheckEvery = 1
	opt.Checkpoint = func(st CheckpointState) {
		if st.Final {
			return
		}
		b, _ := json.Marshal(st.State)
		c := st
		c.State = b
		last = c
		if st.Shards == 5 {
			cancel() // kill mid-run: the NEXT shard will be torn and discarded
		}
	}
	_, st, err := RunSharded(ctx, shots, 42, opt, shardBody, mergeFloat)
	if err != nil {
		t.Fatalf("killed run: %v", err)
	}
	if !st.Truncated {
		t.Fatalf("killed run not truncated: %+v", st)
	}
	if last.Shards == 0 {
		t.Fatal("no committed prefix before the kill")
	}

	res, rst, err := RunSharded(context.Background(), shots, 42, Options{
		ShardSize: 64, Workers: 4,
		Resume: &ResumeState{Shards: last.Shards, Shots: last.Shots, Events: last.Events,
			NoConverge: last.NoConverge, StateJSON: last.State.([]byte)},
	}, shardBody, mergeFloat)
	if err != nil {
		t.Fatalf("resume after mid-shard kill: %v", err)
	}
	if res != coldRes || rst.Completed != shots {
		t.Fatalf("resume after mid-shard kill: got (%v, %+v), want %v complete", res, rst, coldRes)
	}
}

// TestResumeRejectsInconsistentPrefix exercises the typed-rejection paths:
// geometry mismatch, missing state, undecodable state, out-of-plan prefix.
func TestResumeRejectsInconsistentPrefix(t *testing.T) {
	run := func(r *ResumeState) error {
		_, _, err := RunSharded(context.Background(), 1000, 42,
			Options{ShardSize: 64, Resume: r}, shardBody, mergeFloat)
		return err
	}
	cases := []struct {
		name string
		r    *ResumeState
	}{
		{"shots-mismatch", &ResumeState{Shards: 3, Shots: 100, StateJSON: []byte("1.5")}},
		{"negative-shards", &ResumeState{Shards: -1, Shots: 0}},
		{"beyond-plan", &ResumeState{Shards: 99, Shots: 99 * 64}},
		{"missing-state", &ResumeState{Shards: 2, Shots: 128}},
		{"undecodable-state", &ResumeState{Shards: 2, Shots: 128, StateJSON: []byte(`{"not":"a float"}`)}},
	}
	for _, tc := range cases {
		err := run(tc.r)
		if !errors.Is(err, simerr.ErrInvalidConfig) {
			t.Errorf("%s: want ErrInvalidConfig, got %v", tc.name, err)
		}
	}
}

// TestCheckpointFinalFlush asserts the Final callback fires exactly once per
// run, for completed, canceled and converged stops alike, and that no
// non-final callback carries the prefix the Final one carries: the commit
// that stops a run leaves its save to the Final flush.
func TestCheckpointFinalFlush(t *testing.T) {
	check := func(name string, opt Options, ctx context.Context, shots int) {
		var finals, saved []int
		opt.Checkpoint = func(st CheckpointState) {
			if st.Final {
				finals = append(finals, st.Shards)
			} else {
				saved = append(saved, st.Shards)
			}
		}
		if _, _, err := RunSharded(ctx, shots, 7, opt, shardBody, mergeFloat); err != nil {
			t.Fatalf("%s run: %v", name, err)
		}
		if len(finals) != 1 {
			t.Fatalf("%s run: %d final flushes, want 1", name, len(finals))
		}
		if slices.Contains(saved, finals[0]) {
			t.Errorf("%s run: non-final saves at shards %v repeat the Final prefix %d", name, saved, finals[0])
		}
	}
	check("completed", Options{ShardSize: 64, Workers: 2}, context.Background(), 500)
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	check("canceled", Options{ShardSize: 64, CheckEvery: 1}, canceled, 500)
	check("converged", Options{ShardSize: 64, TargetRelStdErr: 0.3, MinShots: 128}, context.Background(), 4000)
}

// TestResumeConvergedOnLastShard resumes a run whose guard is first met on
// its last shard from its own Final snapshot: the resumed run meets the
// same stop check the cold run met at that boundary, convergence before
// completion, and returns the cold result and Status without running a
// shard.
func TestResumeConvergedOnLastShard(t *testing.T) {
	// One event per shard: after k of the 16 shards of 128 shots (the last
	// one 80) the relative standard error is about 1/sqrt(k), 0.257 at 15
	// and 0.249 at 16.
	oneEvent := func(tk *ShardTask) (float64, int, error) {
		sum, _, err := shardBody(tk)
		return sum, 1, err
	}
	const shots = 2000
	var final ResumeState
	opt := Options{ShardSize: 128, TargetRelStdErr: 0.25, Checkpoint: func(st CheckpointState) {
		if st.Final {
			final = ResumeState{Shards: st.Shards, Shots: st.Shots, Events: st.Events,
				NoConverge: st.NoConverge, StateJSON: mustJSON(t, st.State)}
		}
	}}
	cold, coldSt, err := RunSharded(context.Background(), shots, 7, opt, oneEvent, mergeFloat)
	if err != nil {
		t.Fatal(err)
	}
	if !coldSt.Converged || coldSt.Completed != shots || final.Shards != 16 {
		t.Fatalf("cold status %+v, final prefix %d; want converged on the last of 16 shards", coldSt, final.Shards)
	}
	for _, workers := range []int{1, 4} {
		res, st, err := RunSharded(context.Background(), shots, 7,
			Options{ShardSize: 128, TargetRelStdErr: 0.25, Workers: workers, Resume: &final},
			func(*ShardTask) (float64, int, error) {
				t.Error("a resumed Final snapshot ran a shard")
				return 0, 0, nil
			}, mergeFloat)
		if err != nil {
			t.Fatal(err)
		}
		if res != cold || st != coldSt {
			t.Fatalf("workers=%d: resumed (%v, %+v), want the cold (%v, %+v)", workers, res, st, cold, coldSt)
		}
	}
}
