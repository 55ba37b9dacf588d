// Determinism regression: every seeded Monte-Carlo entry point must produce
// bit-identical results when run twice with the same seed — the property the
// robustness layer's guard loops must preserve (the guard never consumes
// random numbers), and the property that makes truncated partial results
// reproducible for debugging.
package qisim_test

import (
	"context"
	"testing"

	"qisim/internal/jpm"
	"qisim/internal/pauli"
	"qisim/internal/readout"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

func TestSurfaceMCDeterministic(t *testing.T) {
	ctx := context.Background()
	opt := simrun.Options{}
	run := func() [3]surface.DecoderResult {
		a, err := surface.MonteCarloLogicalErrorCtx(ctx, 5, 0.01, 4000, 17, opt)
		if err != nil {
			t.Fatal(err)
		}
		b, err := surface.MonteCarloUnionFindCtx(ctx, 5, 0.01, 4000, 17, opt)
		if err != nil {
			t.Fatal(err)
		}
		c, err := surface.MonteCarloPhenomenologicalCtx(ctx, 5, 0.01, 0.01, 5, 2000, 17, opt)
		if err != nil {
			t.Fatal(err)
		}
		return [3]surface.DecoderResult{a, b, c}
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Fatalf("surface MC not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestSurfaceMCDeterministicUnderConvergenceGuard(t *testing.T) {
	// The convergence guard must not change which random numbers each shot
	// consumes: two guarded runs agree bit-exactly with each other.
	ctx := context.Background()
	opt := simrun.Options{TargetRelStdErr: 0.05, MinShots: 500, CheckEvery: 100}
	run := func() surface.DecoderResult {
		r, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, 0.08, 50000, 23, opt)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r1, r2 := run(), run(); r1 != r2 {
		t.Fatalf("guarded surface MC not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestSurfaceMCDeterministicParallel(t *testing.T) {
	// The parallel engine must be as repeatable as the serial one: two
	// multi-worker runs with the same seed agree bit-exactly, including under
	// the convergence guard (the stop point is decided at shard boundaries
	// over the in-order prefix, so it cannot depend on scheduling).
	ctx := context.Background()
	for _, opt := range []simrun.Options{
		{Workers: 4, ShardSize: 128},
		{Workers: 7, ShardSize: 100, TargetRelStdErr: 0.05, MinShots: 500, CheckEvery: 50},
	} {
		run := func() surface.DecoderResult {
			r, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, 0.08, 30000, 23, opt)
			if err != nil {
				t.Fatal(err)
			}
			return r
		}
		if r1, r2 := run(), run(); r1 != r2 {
			t.Fatalf("parallel surface MC not deterministic (%+v):\n%+v\n%+v", opt, r1, r2)
		}
	}
}

func TestPauliMCDeterministic(t *testing.T) {
	ctx := context.Background()
	ch := pauli.DecoherenceChannel(100e-9, 280e-6, 175e-6)
	traj := func() pauli.TrajectoryResult {
		tr, err := pauli.TrajectoryAverageFidelityCtx(ctx, ch, 2000, 9, simrun.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	if r1, r2 := traj(), traj(); r1 != r2 {
		t.Fatalf("pauli trajectory MC not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestReadoutMCDeterministic(t *testing.T) {
	ctx := context.Background()
	mrCfg := readout.DefaultMultiRoundConfig()
	mrCfg.Shots = 20000
	mr := func() readout.MultiRoundResult {
		r, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), mrCfg, simrun.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r1, r2 := mr(), mr(); r1 != r2 {
		t.Fatalf("multi-round MC not deterministic:\n%+v\n%+v", r1, r2)
	}

	tCfg := readout.DefaultTrajectoryConfig()
	tCfg.Shots = 200
	traj := func() readout.TrajectoryResult {
		r, err := readout.TrajectoryMCCtx(ctx, tCfg, readout.DefaultChain(), simrun.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	if r1, r2 := traj(), traj(); r1 != r2 {
		t.Fatalf("trajectory MC not deterministic:\n%+v\n%+v", r1, r2)
	}
}

func TestJPMPipelineDeterministic(t *testing.T) {
	// The JPM readout model is closed-form (no RNG): identical pipelines
	// must report identical timelines and latencies — this pins the
	// contract that no hidden state creeps into the model.
	for _, mode := range []jpm.ShareMode{jpm.Unshared, jpm.NaiveShared, jpm.Pipelined} {
		p1, p2 := jpm.NewPipeline(mode), jpm.NewPipeline(mode)
		if p1.TotalLatency() != p2.TotalLatency() {
			t.Fatalf("%v: latencies differ", mode)
		}
		t1, t2 := p1.Timeline(), p2.Timeline()
		if len(t1) != len(t2) {
			t.Fatalf("%v: timeline lengths differ", mode)
		}
		for i := range t1 {
			if t1[i] != t2[i] {
				t.Fatalf("%v: timeline event %d differs: %+v vs %+v", mode, i, t1[i], t2[i])
			}
		}
	}
}
