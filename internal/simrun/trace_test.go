package simrun

import (
	"context"
	"encoding/json"
	"sync"
	"testing"
	"time"

	"qisim/internal/obs"
)

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal checkpoint state: %v", err)
	}
	return b
}

// coinShard is the shared test shard func: count RNG draws below 0.5.
func coinShard(task *ShardTask) (int, int, error) {
	n := 0
	for i := 0; task.Continue(i); i++ {
		if task.RNG.Float64() < 0.5 {
			n++
		}
	}
	return n, n, nil
}

func sumMerge(dst *int, src int) { *dst += src }

// TestRunShardedTraceStructure: a traced run must produce a structurally
// valid span tree with one mc.run root, one shard span per shard, merge
// spans on the commit path and checkpoint.save spans (incl. the final
// flush), all nested under the root — and the result must be bit-identical
// to the untraced run.
func TestRunShardedTraceStructure(t *testing.T) {
	const shots, shard = 1000, 64
	nShards := (shots + shard - 1) / shard

	plain, stPlain, err := RunSharded(context.Background(), shots, 42,
		Options{Workers: 4, ShardSize: shard}, coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(obs.TracerConfig{ID: "test-run"})
	ctx := obs.WithTracer(context.Background(), tr)
	ckCalls := 0
	traced, stTraced, err := RunSharded(ctx, shots, 42,
		Options{Workers: 4, ShardSize: shard, Checkpoint: func(CheckpointState) { ckCalls++ }},
		coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}

	if plain != traced || stPlain != stTraced {
		t.Fatalf("tracing perturbed the run: plain=%d/%+v traced=%d/%+v",
			plain, stPlain, traced, stTraced)
	}

	trace := tr.Snapshot()
	if err := trace.Check(); err != nil {
		t.Fatalf("trace structurally invalid: %v", err)
	}
	root, ok := trace.Find("mc.run")
	if !ok {
		t.Fatal("no mc.run root span")
	}
	if root.Parent != 0 {
		t.Fatalf("mc.run has parent %d, want root", root.Parent)
	}
	if got := root.Attr("stop"); got != StopCompleted {
		t.Fatalf("mc.run stop attr = %q, want %q", got, StopCompleted)
	}
	if got := root.Attr("completed"); got != "1000" {
		t.Fatalf("mc.run completed attr = %q, want 1000", got)
	}
	if got := trace.Count("shard"); got != nShards {
		t.Fatalf("shard spans = %d, want %d", got, nShards)
	}
	if got := trace.Count("merge"); got == 0 {
		t.Fatal("no merge spans recorded")
	}
	if got := trace.Count("checkpoint.save"); got != ckCalls {
		t.Fatalf("checkpoint.save spans = %d, want %d (one per callback)", got, ckCalls)
	}
	// Every shard/merge span must hang under the run root (shard spans
	// directly, checkpoint.save under its merge span or the root).
	for _, s := range trace.Spans {
		switch s.Name {
		case "shard", "merge":
			if s.Parent != root.ID {
				t.Fatalf("%s span %d parented to %d, want mc.run %d", s.Name, s.ID, s.Parent, root.ID)
			}
		}
	}
	// Traced spans carry every attribute the untraced path skips
	// formatting.
	want := map[string][]string{
		"shard":           {"shard", "shots", "events"},
		"merge":           {"from", "to"},
		"checkpoint.save": {"shards"},
	}
	for _, s := range trace.Spans {
		for _, k := range want[s.Name] {
			if s.Attr(k) == "" {
				t.Fatalf("%s span %d has no %q attribute: %+v", s.Name, s.ID, k, s.Attrs)
			}
		}
	}
	// The final checkpoint flush is stamped final=true.
	foundFinal := false
	for _, s := range trace.Spans {
		if s.Name == "checkpoint.save" && s.Attr("final") == "true" {
			foundFinal = true
		}
	}
	if !foundFinal {
		t.Fatal("no final checkpoint.save span")
	}
}

// TestRunShardedTraceBufferOverflowNeverBlocks: a tracer bound far smaller
// than the span volume must drop the excess (counted) while the engine
// completes the full budget with the exact untraced result.
func TestRunShardedTraceBufferOverflowNeverBlocks(t *testing.T) {
	const shots, shard = 2000, 16 // 125 shards, each emitting spans
	plain, _, err := RunSharded(context.Background(), shots, 7,
		Options{Workers: 4, ShardSize: shard}, coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(obs.TracerConfig{ID: "tiny", MaxSpans: 8})
	ctx := obs.WithTracer(context.Background(), tr)
	done := make(chan struct{})
	var traced int
	go func() {
		defer close(done)
		var st Status
		traced, st, err = RunSharded(ctx, shots, 7,
			Options{Workers: 4, ShardSize: shard}, coinShard, sumMerge)
		_ = st
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("engine blocked on a full trace buffer")
	}
	if err != nil {
		t.Fatal(err)
	}
	if traced != plain {
		t.Fatalf("overflowing tracer perturbed result: %d vs %d", traced, plain)
	}
	if tr.Len() != 8 {
		t.Fatalf("recorded %d spans, want the 8-span bound", tr.Len())
	}
	if tr.Dropped() == 0 {
		t.Fatal("no spans counted as dropped despite overflow")
	}
	if err := tr.Snapshot().Check(); err != nil {
		t.Fatalf("overflowed trace invalid: %v", err)
	}
}

// TestRunShardedBlockingCallbacksCannotSkewMerge pins the reentrancy
// contract on Options.Progress/Checkpoint: a Progress callback that stalls
// (simulating slow span export or file I/O) delays commits but cannot
// deadlock the engine or change the merged result versus the serial
// reference run.
func TestRunShardedBlockingCallbacksCannotSkewMerge(t *testing.T) {
	const shots, shard = 800, 32
	serial, stSerial, err := RunSharded(context.Background(), shots, 99,
		Options{Workers: 1, ShardSize: shard}, coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.NewTracer(obs.TracerConfig{ID: "slow-hooks"})
	ctx := obs.WithTracer(context.Background(), tr)
	gate := make(chan struct{})
	var once sync.Once
	stalls := 0
	opt := Options{
		Workers:   7,
		ShardSize: shard,
		Progress: func(done, req int) {
			// First commit: block until an outside goroutine releases us,
			// while other workers pile up behind the commit lock. Also
			// exercise the "callbacks may use the tracer" guarantee.
			_, s := obs.StartSpan(ctx, "export")
			s.End()
			once.Do(func() {
				stalls++
				select {
				case <-gate:
				case <-time.After(10 * time.Second):
					panic("gate never opened: engine deadlocked?")
				}
			})
		},
		Checkpoint: func(cs CheckpointState) {
			time.Sleep(time.Millisecond) // sluggish persistent store
		},
	}
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()

	doneCh := make(chan struct{})
	var par int
	var stPar Status
	go func() {
		defer close(doneCh)
		par, stPar, err = RunSharded(ctx, shots, 99, opt, coinShard, sumMerge)
	}()
	select {
	case <-doneCh:
	case <-time.After(30 * time.Second):
		t.Fatal("blocking Progress callback deadlocked the engine")
	}
	if err != nil {
		t.Fatal(err)
	}
	if stalls != 1 {
		t.Fatalf("gate closure ran %d times, want 1", stalls)
	}
	if par != serial || stPar != stSerial {
		t.Fatalf("blocking callbacks skewed the merge: serial=%d/%+v par=%d/%+v",
			serial, stSerial, par, stPar)
	}
	if err := tr.Snapshot().Check(); err != nil {
		t.Fatalf("trace under blocking callbacks invalid: %v", err)
	}
}

// TestRunShardedResumeTraced: a resumed run under tracing records a resume
// span and still reproduces the cold result byte-for-byte.
func TestRunShardedResumeTraced(t *testing.T) {
	const shots, shard = 640, 64
	var lastCk CheckpointState
	var lastJSON []byte
	cold, _, err := RunSharded(context.Background(), shots, 5,
		Options{Workers: 1, ShardSize: shard, Checkpoint: func(cs CheckpointState) {
			if !cs.Final && cs.Shards == 5 {
				lastCk = cs
				lastJSON = mustJSON(t, cs.State)
			}
		}}, coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	if lastCk.Shards != 5 {
		t.Fatalf("no mid-run checkpoint captured (got %d shards)", lastCk.Shards)
	}

	tr := obs.NewTracer(obs.TracerConfig{ID: "resumed"})
	ctx := obs.WithTracer(context.Background(), tr)
	resumed, st, err := RunSharded(ctx, shots, 5,
		Options{Workers: 4, ShardSize: shard, Resume: &ResumeState{
			Shards: lastCk.Shards, Shots: lastCk.Shots, Events: lastCk.Events,
			NoConverge: lastCk.NoConverge, StateJSON: lastJSON,
		}}, coinShard, sumMerge)
	if err != nil {
		t.Fatal(err)
	}
	if resumed != cold || st.Completed != shots {
		t.Fatalf("traced resume diverged: cold=%d resumed=%d completed=%d", cold, resumed, st.Completed)
	}
	trace := tr.Snapshot()
	if err := trace.Check(); err != nil {
		t.Fatalf("resumed trace invalid: %v", err)
	}
	rs, ok := trace.Find("resume")
	if !ok {
		t.Fatal("no resume span")
	}
	if rs.Attr("shards") != "5" {
		t.Fatalf("resume span shards attr = %q, want 5", rs.Attr("shards"))
	}
}
