// Serial-vs-parallel equivalence regression: every Monte-Carlo entry point
// must produce bit-identical results for every worker count. The sharded
// engine guarantees this by deriving each shard's RNG stream from (seed,
// shard index) alone and merging in shard order — so Workers=1 (the serial
// reference) and any parallel fan-out walk exactly the same random numbers
// per shot and fold them in the same order.
//
// These tests deliberately use a small shard size so runs span many shards;
// a single-shard run would be trivially worker-invariant.
package qisim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"reflect"
	"testing"

	"qisim/internal/microarch"
	"qisim/internal/pauli"
	"qisim/internal/readout"
	"qisim/internal/scalability"
	"qisim/internal/simrun"
	"qisim/internal/surface"
)

// workerCounts are the fan-outs compared against the Workers=1 serial
// reference: an even divisor of typical shard counts, a prime that isn't,
// and 0 (= all cores) to cover whatever the CI machine has.
var workerCounts = []int{4, 7, 0}

// equivOpts returns Options with a small shard size so every run below
// spans many shards, exercising the cross-shard merge path.
func equivOpts(workers int) simrun.Options {
	return simrun.Options{Workers: workers, ShardSize: 100}
}

func TestSurfaceDecoderEquivalence(t *testing.T) {
	ctx := context.Background()
	type variant struct {
		name string
		run  func(opt simrun.Options) (surface.DecoderResult, error)
	}
	variants := []variant{
		{"mwpm", func(opt simrun.Options) (surface.DecoderResult, error) {
			return surface.MonteCarloLogicalErrorCtx(ctx, 5, 0.01, 3000, 17, opt)
		}},
		{"unionfind", func(opt simrun.Options) (surface.DecoderResult, error) {
			return surface.MonteCarloUnionFindCtx(ctx, 5, 0.01, 3000, 17, opt)
		}},
		{"phenomenological", func(opt simrun.Options) (surface.DecoderResult, error) {
			return surface.MonteCarloPhenomenologicalCtx(ctx, 5, 0.01, 0.01, 5, 1500, 17, opt)
		}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			serial, err := v.run(equivOpts(1))
			if err != nil {
				t.Fatal(err)
			}
			if serial.Shots == 0 || serial.Failures == 0 {
				t.Fatalf("degenerate serial reference: %+v", serial)
			}
			for _, w := range workerCounts {
				par, err := v.run(equivOpts(w))
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				if par != serial {
					t.Errorf("workers=%d diverges from serial:\nserial:   %+v\nparallel: %+v", w, serial, par)
				}
			}
		})
	}
}

func TestPauliTrajectoryEquivalence(t *testing.T) {
	ctx := context.Background()
	ch := pauli.DecoherenceChannel(100e-9, 280e-6, 175e-6)
	serial, err := pauli.TrajectoryAverageFidelityCtx(ctx, ch, 2000, 9, equivOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		par, err := pauli.TrajectoryAverageFidelityCtx(ctx, ch, 2000, 9, equivOpts(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par != serial {
			t.Errorf("workers=%d diverges from serial:\nserial:   %+v\nparallel: %+v", w, serial, par)
		}
	}
}

func TestReadoutEquivalence(t *testing.T) {
	ctx := context.Background()

	mrCfg := readout.DefaultMultiRoundConfig()
	mrCfg.Shots = 10000
	mrSerial, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), mrCfg, equivOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		par, err := readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), mrCfg, equivOpts(w))
		if err != nil {
			t.Fatalf("multiround workers=%d: %v", w, err)
		}
		if par != mrSerial {
			t.Errorf("multiround workers=%d diverges:\nserial:   %+v\nparallel: %+v", w, mrSerial, par)
		}
	}

	tCfg := readout.DefaultTrajectoryConfig()
	tCfg.Shots = 600
	// Shard size 50 so even this small trajectory budget spans many shards.
	opt := func(w int) simrun.Options { return simrun.Options{Workers: w, ShardSize: 50} }
	tSerial, err := readout.TrajectoryMCCtx(ctx, tCfg, readout.DefaultChain(), opt(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workerCounts {
		par, err := readout.TrajectoryMCCtx(ctx, tCfg, readout.DefaultChain(), opt(w))
		if err != nil {
			t.Fatalf("trajectory workers=%d: %v", w, err)
		}
		if par != tSerial {
			t.Errorf("trajectory workers=%d diverges:\nserial:   %+v\nparallel: %+v", w, tSerial, par)
		}
	}
}

func TestScalabilitySweepEquivalence(t *testing.T) {
	ctx := context.Background()
	counts := []int{100, 500, 1000, 2000, 5000, 10000, 20000, 50000, 100000, 200000, 500000}
	run := func(w int) scalability.SweepResult {
		opt := scalability.DefaultOptions()
		opt.Workers = w
		res, err := scalability.SweepCtx(ctx, microarch.CMOS4KOpt12(), counts, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		return res
	}
	serial := run(1)
	if len(serial.Points) != len(counts) {
		t.Fatalf("serial sweep returned %d points, want %d", len(serial.Points), len(counts))
	}
	for _, w := range workerCounts {
		par := run(w)
		if !reflect.DeepEqual(par, serial) {
			t.Errorf("workers=%d sweep diverges from serial:\nserial:   %+v\nparallel: %+v", w, serial, par)
		}
	}

	serialAll, serialStatus, err := scalability.AnalyzeAllCtx(ctx, scalability.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if serialStatus.Truncated {
		t.Fatal("uncancelled AnalyzeAllCtx reported truncation")
	}
	for _, w := range workerCounts {
		opt := scalability.DefaultOptions()
		opt.Workers = w
		parAll, _, err := scalability.AnalyzeAllCtx(ctx, opt)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if !reflect.DeepEqual(parAll, serialAll) {
			t.Errorf("workers=%d analyze-all diverges from serial", w)
		}
	}
}

// TestConvergenceGuardEquivalence pins the harder property: even with the
// convergence guard stopping the run early, the stop point and the estimate
// are identical for every worker count, because convergence is evaluated at
// shard boundaries over the committed in-order prefix.
func TestConvergenceGuardEquivalence(t *testing.T) {
	ctx := context.Background()
	opt := func(w int) simrun.Options {
		return simrun.Options{Workers: w, ShardSize: 100, TargetRelStdErr: 0.05, MinShots: 500, CheckEvery: 50}
	}
	serial, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, 0.08, 50000, 23, opt(1))
	if err != nil {
		t.Fatal(err)
	}
	if !serial.Status.Converged {
		t.Fatalf("expected the guarded serial run to converge, got %+v", serial.Status)
	}
	for _, w := range workerCounts {
		par, err := surface.MonteCarloLogicalErrorCtx(ctx, 3, 0.08, 50000, 23, opt(w))
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		if par != serial {
			t.Errorf("workers=%d guarded run diverges:\nserial:   %+v\nparallel: %+v", w, serial, par)
		}
	}
}

// ---- golden bit-equality pins ----
//
// The digests below are SHA-256 hashes of the canonical JSON encoding of
// each Monte-Carlo result, captured BEFORE the hot-path speed campaign
// (PR 7) touched any kernel. Every optimization to the MC paths must keep
// these bytes identical: a single changed bit in any estimate fails the
// pin. The workloads intentionally mirror the equivalence suite above
// (small shard size, many shards) so the pins also cover the merge path.
// surface-union-find and surface-phenomenological-greedy were captured
// later, before the decoders moved onto one decoding graph: the first pins
// union-find's results, and in the second most shots exceed the exact
// matcher's event cap, so it pins the greedy fallback.

func goldenDigest(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

func TestGoldenBitEquality(t *testing.T) {
	ctx := context.Background()
	opt := simrun.Options{ShardSize: 100}

	mrCfg := readout.DefaultMultiRoundConfig()
	mrCfg.Shots = 10000
	tCfg := readout.DefaultTrajectoryConfig()
	tCfg.Shots = 600

	cases := []struct {
		name string
		run  func() (any, error)
		want string
	}{
		{"surface-mwpm", func() (any, error) {
			return surface.MonteCarloLogicalErrorCtx(ctx, 5, 0.01, 3000, 17, opt)
		}, "351aa8d89fb361847efc061f7da9f9005fec2d502dd71ff4fc813b52d4a7479c"},
		{"surface-phenomenological", func() (any, error) {
			return surface.MonteCarloPhenomenologicalCtx(ctx, 5, 0.01, 0.01, 5, 1500, 17, opt)
		}, "08a0f2971a3b4a1c43784fdd26a9fca5181e3a1a74ca452d69f064db3d6a0c7c"},
		{"surface-union-find", func() (any, error) {
			return surface.MonteCarloUnionFindCtx(ctx, 5, 0.05, 3000, 17, opt)
		}, "d929b731f5516ff83932f8786bff683760666e53fafedd86828e5c83b249bdde"},
		{"surface-phenomenological-greedy", func() (any, error) {
			return surface.MonteCarloPhenomenologicalCtx(ctx, 7, 0.03, 0.03, 7, 1000, 17, opt)
		}, "b0bff95dcc6a17370e0f492127f39b91cf1765a0230237c53fd5edd2b2ccb86d"},
		{"pauli-trajectory", func() (any, error) {
			return pauli.TrajectoryAverageFidelityCtx(ctx, pauli.DecoherenceChannel(100e-9, 280e-6, 175e-6), 2000, 9, opt)
		}, "dfd74da99910212fa4b2cc383e620846b86c21b95c0dab48573b9624dc6253ec"},
		{"readout-multiround", func() (any, error) {
			return readout.MultiRoundErrorCtx(ctx, readout.DefaultChain(), readout.DefaultTiming(), mrCfg, opt)
		}, "aff331f33aa8135f47dd7709616abd9f56da82f67c3756e37785c0a3101f7984"},
		{"readout-trajectory", func() (any, error) {
			return readout.TrajectoryMCCtx(ctx, tCfg, readout.DefaultChain(), simrun.Options{ShardSize: 50})
		}, "dddd8a99fc62cc9efb08915337c22e1d91dbd0eca10bddffcb017bb782cfe303"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			res, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			got := goldenDigest(t, res)
			if c.want == "" {
				t.Errorf("golden digest not pinned yet; computed %s", got)
			} else if got != c.want {
				t.Errorf("result bytes diverged from the pre-optimization golden:\n got %s\nwant %s", got, c.want)
			}
		})
	}
}
